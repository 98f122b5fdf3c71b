"""Hypergeometric evaluation, gamma helpers and the partition bookkeeping."""

import math
from collections import Counter
from itertools import product

import numpy as np
import pytest

import finitenet.specfun as specfun
from finitenet import InvalidParameterError, NumericFailure
from finitenet.specfun import enumerate_weighted_partitions, gauss_2f1, ln_gamma

# Reference values computed with 30-digit arbitrary-precision arithmetic and
# frozen here. Arguments follow the patterns the moment integrals produce:
# a = m or 2/alpha + m, c = a + 1 type offsets, z real negative (real shapes)
# or complex with negative real part (transform nodes).
F21_GOLDENS = [
    ((2.5, 19.0 / 6.0, 25.0 / 6.0, -17.3),
     0.00219611649425871671692),
    ((1.0, 1.5, 2.5, -1.0e6),
     2.995290611018615310742e-6),
    ((3.0, 3.8, 4.8, -0.37),
     0.4698434759741184492774),
    ((0.5, 5.0 / 6.0, 11.0 / 6.0, -42.0),
     0.2923352928957128766909),
    ((1.5, 2.0, 3.0, -3.2e4 + 2.7e4j),
     2.310255148155725663436e-7 + 4.008149422235951519894e-7j),
    ((1.0, 1.8, 2.8, -8.0 + 15.0j),
     0.06670719108962656757498 + 0.08806931402037578259978j),
    ((2.0, 1.0, 3.0, -500.0),
     0.003950267151191321081611),
    # b - a integer: the degenerate-expansion fallback path
    ((3.0, 4.0, 4.0, -500.0),
     7.952191361914638299228e-9),
]


def test_2f1_frozen_values():
    for (a, b, c, z), truth in F21_GOLDENS:
        got = gauss_2f1(a, b, c, z)
        assert abs(got - truth) <= 1e-12 * abs(truth), (a, b, c, z)


def test_2f1_at_zero_is_one():
    assert gauss_2f1(1.7, 0.3, 2.9, 0.0) == 1.0


def test_2f1_log_reduction():
    # 2F1(1, 1; 2; z) = -ln(1 - z) / z
    for z in (-0.3, -3.0, -80.0, -1e4):
        truth = -math.log1p(-z) / z
        assert abs(gauss_2f1(1.0, 1.0, 2.0, z) - truth) < 1e-12 * abs(truth)


def test_2f1_binomial_reduction():
    # 2F1(a, b; b; z) = (1 - z)^{-a}, any b
    for a, z in ((1.5, -7.0), (3.0, -0.2), (0.5, -900.0)):
        truth = (1.0 - z) ** (-a)
        assert abs(gauss_2f1(a, 2.2, 2.2, z) - truth) < 1e-12 * abs(truth)


def test_2f1_invalid_arguments():
    with pytest.raises(InvalidParameterError):
        gauss_2f1(1.0, 2.0, 0.0, -0.5)
    with pytest.raises(InvalidParameterError):
        gauss_2f1(1.0, 2.0, -3.0, -0.5)
    with pytest.raises(InvalidParameterError):
        gauss_2f1(1.0, 2.0, 3.0, 1.0)
    with pytest.raises(InvalidParameterError):
        gauss_2f1(1.0, 2.0, 3.0, 2.5)


def test_2f1_contiguous_relation():
    # (c - a) F(a-1) + (2a - c + (b - a) z) F(a) + a (z - 1) F(a+1) = 0,
    # checked over the parameter patterns the moment integrals use.
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(200):
        m = rng.uniform(0.5, 10.0)
        alpha = rng.uniform(2.0, 6.0)
        tau = rng.integers(0, 4)
        a = 2.0 / alpha + m
        b = m + float(tau)
        c = 1.0 + 2.0 / alpha + m
        z = -(10.0 ** rng.uniform(-4.0, 6.0))
        f_am = gauss_2f1(a - 1.0, b, c, z)
        f_a = gauss_2f1(a, b, c, z)
        f_ap = gauss_2f1(a + 1.0, b, c, z)
        t1 = (c - a) * f_am
        t2 = (2.0 * a - c + (b - a) * z) * f_a
        t3 = a * (z - 1.0) * f_ap
        scale = max(abs(t1), abs(t2), abs(t3), 1e-300)
        residual = abs(t1 + t2 + t3) / scale
        worst = max(worst, residual)
    assert worst <= 1e-9, worst


def test_ln_gamma_values_and_recurrence():
    assert ln_gamma(1.0) == 0.0
    assert abs(ln_gamma(0.5) - 0.5 * math.log(math.pi)) < 1e-15
    for x in np.linspace(0.1, 50.0, 117):
        lhs = ln_gamma(x + 1.0) - ln_gamma(x)
        assert abs(lhs - math.log(x)) <= 1e-12 * max(1.0, abs(lhs))
    with pytest.raises(InvalidParameterError):
        ln_gamma(0.0)
    with pytest.raises(InvalidParameterError):
        ln_gamma(-2.5)


# ----- gamma and 1/gamma of the 1/z branch -----

# (x, Gamma(x), 1/Gamma(x)) as float.hex, recorded from the Cephes routines
# of scipy.special 1.17.1. The 1/z branch cancels, so its gamma factors must
# keep these bits, not merely their accuracy. Arguments: the factors'
# arguments c, b-a, b, c-a, a-b, a, c-b for a = 2/alpha + m, b = m + t,
# c = a + 1 with alpha in {2.2, 3, 4, 6}, m in {0.5, 1, 2.79, 30, 170} and
# t in {0, 1, 7, 63}; +-4 (where 1/Gamma changes form), 33 (Stirling),
# 143.01608 (Stirling's split power), 171.6, 171.7 and the overflow point,
# each with its float neighbours; |x| < 1e-9; zero, the negative integers,
# +-inf and nan.
GAMMA_BITS = [
    ("0x1.345d1745d1746p+1", "0x1.3fe52cc3d4471p+0", "0x1.99bbf28a472eep-1"),
    ("-0x1.d1745d1745d18p-1", "-0x1.71ce8a1cdffacp+3", "-0x1.626f08a06ada4p-4"),
    ("0x1.0000000000000p-1", "0x1.c5bf891b4ef6ap+0", "0x1.20dd750429b6dp-1"),
    ("0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.0000000000000p+0"),
    ("0x1.d1745d1745d18p-1", "0x1.0fb827c62f538p+0", "0x1.e2614bb006299p-1"),
    ("0x1.68ba2e8ba2e8cp+0", "0x1.c60b79580401bp-1", "0x1.20ad250ff7f85p+0"),
    ("0x1.e8ba2e8ba2e8cp+0", "0x1.ee09027f9bddbp-1", "0x1.094f1cd40363ap+0"),
    ("0x1.745d1745d1740p-4", "0x1.5030207757412p+3", "0x1.85e0897d42567p-4"),
    ("0x1.8000000000000p+0", "0x1.c5bf891b4ef6ap-1", "0x1.20dd750429b6dp+0"),
    ("-0x1.745d1745d1740p-4", "-0x1.759d36b081133p+3", "-0x1.5ed265974a4c6p-4"),
    ("0x1.85d1745d1745dp+2", "0x1.1879ae6383634p+7", "0x1.d3522bb886ce6p-8"),
    ("0x1.e000000000000p+2", "0x1.d3d0468bd32bdp+10", "0x1.182e13615e892p-11"),
    ("-0x1.85d1745d1745dp+2", "-0x1.abc68d3642960p-7", "-0x1.3267552bed301p+6"),
    ("-0x1.45d1745d1745dp+2", "0x1.45b15a0f213dep-4", "0x1.9270cb91933b5p+3"),
    ("0x1.f0ba2e8ba2e8cp+5", "0x1.85196cb3a7cb1p+278", "0x1.50dc29c3e0180p-279"),
    ("0x1.fc00000000000p+5", "0x1.00a5a103fbfc3p+287", "0x1.feb593bfa0be0p-288"),
    ("-0x1.f0ba2e8ba2e8cp+5", "-0x1.e3f9fb2e68fb5p-282", "-0x1.0ed2b4e9648a0p+281"),
    ("-0x1.e8ba2e8ba2e8cp+5", "0x1.d58a2924a97c8p-276", "0x1.172665c3f72f7p+275"),
    ("0x1.745d1745d1746p+1", "0x1.d7943c9114c80p+0", "0x1.15f15b274080cp-1"),
    ("0x1.0000000000000p+1", "0x1.0000000000000p+0", "0x1.0000000000000p+0"),
    ("0x1.0000000000000p+3", "0x1.3b00000000000p+12", "0x1.a01a01a01a01ap-13"),
    ("0x1.0000000000000p+6", "0x1.fe478ee34844bp+289", "0x1.00dcf6a320e1bp-290"),
    ("0x1.2cbde7cbde7ccp+2", "0x1.ed290d7468cb5p+3", "0x1.09c798b2ea5f9p-4"),
    ("0x1.651eb851eb852p+1", "0x1.a99931b66b104p+0", "0x1.33f8982ac7d81p-1"),
    ("0x1.d97bcf97bcf98p+1", "0x1.0aa380a319844p+2", "0x1.eb92538ede669p-3"),
    ("0x1.e51eb851eb852p+1", "0x1.28dada5ac1b78p+2", "0x1.b9891c39a9fbfp-3"),
    ("0x1.85d1745d1745cp+2", "0x1.1879ae638362dp+7", "0x1.d3522bb886cf2p-8"),
    ("0x1.3947ae147ae14p+3", "0x1.babc1cb78d389p+17", "0x1.280d01e01afe2p-18"),
    ("-0x1.85d1745d1745cp+2", "-0x1.abc68d36429b4p-7", "-0x1.3267552bed2c5p+6"),
    ("-0x1.45d1745d1745cp+2", "0x1.45b15a0f2141dp-4", "0x1.9270cb9193367p+3"),
    ("0x1.0728f5c28f5c3p+6", "0x1.aed4938e199d1p+300", "0x1.303b29778e3e9p-301"),
    ("0x1.fe8ba2e8ba2e9p+4", "0x1.284f92eea3a29p+112", "0x1.ba58a6b551211p-113"),
    ("-0x1.d1745d1745d20p-1", "-0x1.71ce8a1cdffe8p+3", "-0x1.626f08a06ad6bp-4"),
    ("0x1.e000000000000p+4", "0x1.be6518687a784p+102", "0x1.259f98b4358aep-103"),
    ("0x1.d1745d1745d20p-1", "0x1.0fb827c62f534p+0", "0x1.e2614bb00629fp-1"),
    ("0x1.ee8ba2e8ba2e9p+4", "0x1.32c4d45a7332fp+107", "0x1.ab442ca95145ap-108"),
    ("0x1.e8ba2e8ba2e90p+0", "0x1.ee09027f9bdddp-1", "0x1.094f1cd403639p+0"),
    ("0x1.745d1745d1700p-4", "0x1.503020775744dp+3", "0x1.85e0897d42521p-4"),
    ("0x1.f000000000000p+4", "0x1.a27ec6e1f2d0ep+107", "0x1.3932c5047d60dp-108"),
    ("-0x1.745d1745d1700p-4", "-0x1.759d36b08116fp+3", "-0x1.5ed265974a48fp-4"),
    ("0x1.2800000000000p+5", "0x1.114c2b2deea0ep+138", "0x1.df983290c2caap-139"),
    ("0x1.7400000000000p+6", "0x1.051fc798c73bep+472", "0x1.f5f3ec7bc5d73p-473"),
    ("0x1.57d1745d1745dp+7", "inf", "0x0.0p+0"),
    ("-0x1.d1745d1745d00p-1", "-0x1.71ce8a1cdfefap+3", "-0x1.626f08a06ae50p-4"),
    ("0x1.5400000000000p+7", "0x1.f2054eb4d96eep+1011", "0x1.072f9295f56c0p-1012"),
    ("0x1.d1745d1745d00p-1", "0x1.0fb827c62f542p+0", "0x1.e2614bb006289p-1"),
    ("0x1.55d1745d1745dp+7", "0x1.9e959216999f6p+1018", "0x1.3c2721e433cc7p-1019"),
    ("0x1.e8ba2e8ba2e80p+0", "0x1.ee09027f9bdd3p-1", "0x1.094f1cd40363fp+0"),
    ("0x1.745d1745d1800p-4", "0x1.503020775735fp+3", "0x1.85e0897d42639p-4"),
    ("0x1.5600000000000p+7", "0x1.4ab786441863ap+1019", "0x1.8c53af9080a2bp-1020"),
    ("-0x1.745d1745d1800p-4", "-0x1.759d36b081080p+3", "-0x1.5ed265974a570p-4"),
    ("0x1.85d1745d17460p+2", "0x1.1879ae638364bp+7", "0x1.d3522bb886cc0p-8"),
    ("0x1.6200000000000p+7", "inf", "0x0.0p+0"),
    ("-0x1.85d1745d17460p+2", "-0x1.abc68d3642863p-7", "-0x1.3267552bed3b7p+6"),
    ("-0x1.45d1745d17460p+2", "0x1.45b15a0f21320p-4", "0x1.9270cb91934a0p+3"),
    ("0x1.d200000000000p+7", "inf", "0x0.0p+0"),
    ("0x1.1555555555555p+1", "0x1.15142eec1bf80p+0", "0x1.d90caa5523794p-1"),
    ("-0x1.5555555555554p-1", "-0x1.012d97eaf6234p+2", "-0x1.fda79385ee50cp-3"),
    ("0x1.5555555555554p-1", "0x1.5aa77928c367ap+0", "0x1.7a1b1d1fccaf8p-1"),
    ("0x1.2aaaaaaaaaaaap+0", "0x1.dafe074b9da93p-1", "0x1.13f20e06ff5c1p+0"),
    ("0x1.aaaaaaaaaaaaap+0", "0x1.ce34a18baf34bp-1", "0x1.1b9455d7d983bp+0"),
    ("0x1.5555555555558p-2", "0x1.56e77539482eep+1", "0x1.7e3daea472bcbp-2"),
    ("-0x1.5555555555558p-2", "-0x1.03fd9ade928d9p+2", "-0x1.f82426d510ea4p-3"),
    ("0x1.9555555555556p+2", "0x1.ac0acd5317bcep+7", "0x1.32367a2ec7f0ap-8"),
    ("-0x1.9555555555556p+2", "-0x1.5ec8cc73a2b2bp-9", "-0x1.75a76fbe88590p+8"),
    ("-0x1.5555555555556p+2", "0x1.15b44c863622cp-6", "0x1.d7fbeb7768dc5p+5"),
    ("0x1.f2aaaaaaaaaabp+5", "0x1.084274cfb4a47p+280", "0x1.efff43c06ce3cp-281"),
    ("-0x1.f2aaaaaaaaaabp+5", "-0x1.cdd8ce75fde6dp-285", "-0x1.1bccb778506acp+284"),
    ("-0x1.eaaaaaaaaaaabp+5", "0x1.c1d1d3c0409f8p-279", "0x1.23634d7ce66aep+278"),
    ("0x1.5555555555555p+1", "0x1.812bdbf467568p+0", "0x1.544b9a363837bp-1"),
    ("0x1.1d3a06d3a06d4p+2", "0x1.5e8e832e46060p+3", "0x1.75e5902490692p-4"),
    ("0x1.0000000000002p+0", "0x1.ffffffffffffep-1", "0x1.0000000000001p+0"),
    ("0x1.ba740da740da7p+1", "0x1.95a89db99ecabp+1", "0x1.431bed6ab0d96p-2"),
    ("0x1.aaaaaaaaaaaacp+0", "0x1.ce34a18baf34cp-1", "0x1.1b9455d7d983bp+0"),
    ("0x1.5555555555558p-1", "0x1.5aa77928c3676p+0", "0x1.7a1b1d1fccafcp-1"),
    ("0x1.9555555555554p+2", "0x1.ac0acd5317bb5p+7", "0x1.32367a2ec7f1cp-8"),
    ("-0x1.9555555555554p+2", "-0x1.5ec8cc73a2b51p-9", "-0x1.75a76fbe88568p+8"),
    ("-0x1.5555555555554p+2", "0x1.15b44c863624bp-6", "0x1.d7fbeb7768d90p+5"),
    ("0x1.f2aaaaaaaaaacp+5", "0x1.084274cfb4ad0p+280", "0x1.efff43c06cd3bp-281"),
    ("-0x1.f2aaaaaaaaaacp+5", "-0x1.cdd8ce75fdd14p-285", "-0x1.1bccb77850780p+284"),
    ("-0x1.eaaaaaaaaaaacp+5", "0x1.c1d1d3c0408a8p-279", "0x1.23634d7ce6788p+278"),
    ("0x1.faaaaaaaaaaabp+4", "0x1.013137b93fa1fp+111", "0x1.fda064f975839p-112"),
    ("-0x1.5555555555560p-1", "-0x1.012d97eaf623ep+2", "-0x1.fda79385ee4f9p-3"),
    ("0x1.5555555555560p-1", "0x1.5aa77928c3670p+0", "0x1.7a1b1d1fccb04p-1"),
    ("0x1.eaaaaaaaaaaabp+4", "0x1.0c5fe11a58a8ep+106", "0x1.e86460c465f3ap-107"),
    ("0x1.aaaaaaaaaaab0p+0", "0x1.ce34a18baf34dp-1", "0x1.1b9455d7d983ap+0"),
    ("0x1.5555555555540p-2", "0x1.56e7753948308p+1", "0x1.7e3daea472bafp-2"),
    ("-0x1.5555555555540p-2", "-0x1.03fd9ade928e4p+2", "-0x1.f82426d510e90p-3"),
    ("0x1.f2aaaaaaaaaaap+5", "0x1.084274cfb49bep+280", "0x1.efff43c06cf3dp-281"),
    ("-0x1.f2aaaaaaaaaaap+5", "-0x1.cdd8ce75fdfc6p-285", "-0x1.1bccb778505d8p+284"),
    ("-0x1.eaaaaaaaaaaaap+5", "0x1.c1d1d3c040b45p-279", "0x1.23634d7ce65d6p+278"),
    ("0x1.5755555555555p+7", "inf", "0x0.0p+0"),
    ("-0x1.5555555555500p-1", "-0x1.012d97eaf61efp+2", "-0x1.fda79385ee595p-3"),
    ("0x1.5555555555500p-1", "0x1.5aa77928c36c5p+0", "0x1.7a1b1d1fccaa7p-1"),
    ("0x1.5555555555555p+7", "0x1.dd497ac201254p+1016", "0x1.129e6ae049f8cp-1017"),
    ("0x1.aaaaaaaaaaa80p+0", "0x1.ce34a18baf33ep-1", "0x1.1b9455d7d9844p+0"),
    ("0x1.5555555555600p-2", "0x1.56e775394823fp+1", "0x1.7e3daea472c8fp-2"),
    ("-0x1.5555555555600p-2", "-0x1.03fd9ade92892p+2", "-0x1.f82426d510f30p-3"),
    ("0x1.9555555555560p+2", "0x1.ac0acd5317c45p+7", "0x1.32367a2ec7eb5p-8"),
    ("-0x1.9555555555560p+2", "-0x1.5ec8cc73a2a5fp-9", "-0x1.75a76fbe88669p+8"),
    ("-0x1.5555555555560p+2", "0x1.15b44c8636192p-6", "0x1.d7fbeb7768ecap+5"),
    ("-0x1.0000000000000p-1", "-0x1.c5bf891b4ef6ap+1", "-0x1.20dd750429b6dp-2"),
    ("0x1.a000000000000p+2", "0x1.1fe2a1911f7d6p+8", "0x1.c74adf7e399eep-9"),
    ("-0x1.a000000000000p+2", "-0x1.b81b0e66884ffp-10", "-0x1.29d1c266403fep+9"),
    ("-0x1.6000000000000p+2", "0x1.6595fbb34ec11p-7", "0x1.6e8c02f4004e8p+6"),
    ("0x1.f400000000000p+5", "0x1.06ce77d2ed8d8p+281", "0x1.f2bd524922f99p-282"),
    ("-0x1.f400000000000p+5", "-0x1.911c31cf2ecebp-286", "-0x1.46c5e982f2b94p+285"),
    ("-0x1.ec00000000000p+5", "0x1.87b588a453b5fp-280", "0x1.4e9d9b25d5bb9p+279"),
    ("0x1.4000000000000p+1", "0x1.544fa6d47b390p+0", "0x1.812746b0379e7p-1"),
    ("0x1.128f5c28f5c29p+2", "0x1.179bdaeb89543p+3", "0x1.d4c4eace4fbd0p-4"),
    ("0x1.a51eb851eb852p+1", "0x1.53f32df52059ep+1", "0x1.81900b5e2bd32p-2"),
    ("0x1.9ffffffffffffp+2", "0x1.1fe2a1911f7d0p+8", "0x1.c74adf7e399f8p-9"),
    ("-0x1.9ffffffffffffp+2", "-0x1.b81b0e668850dp-10", "-0x1.29d1c266403f4p+9"),
    ("-0x1.5ffffffffffffp+2", "0x1.6595fbb34ec1cp-7", "0x1.6e8c02f4004dcp+6"),
    ("0x1.f400000000001p+5", "0x1.06ce77d2ed95fp+281", "0x1.f2bd524922e99p-282"),
    ("-0x1.f400000000001p+5", "-0x1.911c31cf2ec1cp-286", "-0x1.46c5e982f2c3dp+285"),
    ("-0x1.ec00000000001p+5", "0x1.87b588a453a94p-280", "0x1.4e9d9b25d5c67p+279"),
    ("0x1.f800000000000p+4", "0x1.22169c90652b7p+110", "0x1.c3d5b53b7279dp-111"),
    ("0x1.e800000000000p+4", "0x1.305adf049c817p+105", "0x1.aea7b0bca91c4p-106"),
    ("0x1.5700000000000p+7", "0x1.0e1863dcad78bp+1023", "0x0.7951f58fd631fp-1022"),
    ("0x1.5500000000000p+7", "0x1.9589f849167a7p+1015", "0x1.4334583130a14p-1016"),
    ("0x1.d555555555555p+0", "0x1.e19da50801ddep-1", "0x1.102689ce0afacp+0"),
    ("-0x1.5555555555554p-2", "-0x1.03fd9ade928ddp+2", "-0x1.f82426d510ea0p-3"),
    ("0x1.5555555555554p-2", "0x1.56e77539482f2p+1", "0x1.7e3daea472bc7p-2"),
    ("0x1.aaaaaaaaaaaaap-1", "0x1.20f82fd19ab85p+0", "0x1.c595905767a1ep-1"),
    ("0x1.5555555555555p+0", "0x1.c9349c4c603eap-1", "0x1.1eae42fb560d6p+0"),
    ("0x1.5555555555556p-1", "0x1.5aa77928c3679p+0", "0x1.7a1b1d1fccafap-1"),
    ("-0x1.5555555555556p-1", "-0x1.012d97eaf6234p+2", "-0x1.fda79385ee50bp-3"),
    ("0x1.aaaaaaaaaaaabp+2", "0x1.8508f0ed2d1ddp+8", "0x1.50ea6f9c5adc5p-9"),
    ("-0x1.aaaaaaaaaaaabp+2", "-0x1.6ea89770eb646p-10", "-0x1.657a1c40e0453p+9"),
    ("-0x1.6aaaaaaaaaaabp+2", "0x1.318c7e336ed3ap-7", "0x1.acf8eeb440531p+6"),
    ("0x1.f555555555555p+5", "0x1.057a8220e914cp+282", "0x1.f545c12e2beccp-283"),
    ("-0x1.f555555555555p+5", "-0x1.d046b9e7c8451p-287", "-0x1.1a508dc531b3dp+286"),
    ("-0x1.ed55555555555p+5", "0x1.c69a9608496e3p-281", "0x1.20524488072f8p+280"),
    ("0x1.2aaaaaaaaaaaap+1", "0x1.30cdbd884029dp+0", "0x1.ae05647901141p-1"),
    ("0x1.ffffffffffffep-1", "0x1.0000000000002p+0", "0x1.ffffffffffffep-1"),
    ("0x1.5555555555554p+0", "0x1.c9349c4c603edp-1", "0x1.1eae42fb560d5p+0"),
    ("0x1.5555555555550p-2", "0x1.56e77539482f7p+1", "0x1.7e3daea472bc1p-2"),
    ("0x1.07e4b17e4b17ep+2", "0x1.c14d994833dc6p+2", "0x1.23b90ea255af2p-3"),
    ("0x1.ffffffffffffcp-1", "0x1.0000000000001p+0", "0x1.ffffffffffffep-1"),
    ("0x1.8fc962fc962fdp+1", "0x1.1fb51ad82c234p+1", "0x1.c792eae82dea7p-2"),
    ("0x1.aaaaaaaaaaaaap+2", "0x1.8508f0ed2d1d3p+8", "0x1.50ea6f9c5adcep-9"),
    ("-0x1.aaaaaaaaaaaaap+2", "-0x1.6ea89770eb647p-10", "-0x1.657a1c40e0452p+9"),
    ("-0x1.6aaaaaaaaaaaap+2", "0x1.318c7e336ed3ap-7", "0x1.acf8eeb440531p+6"),
    ("0x1.f555555555556p+5", "0x1.057a8220e91d4p+282", "0x1.f545c12e2bdc7p-283"),
    ("-0x1.f555555555556p+5", "-0x1.d046b9e7c83c8p-287", "-0x1.1a508dc531b90p+286"),
    ("-0x1.ed55555555556p+5", "0x1.c69a960849661p-281", "0x1.205244880734bp+280"),
    ("0x1.f555555555555p+4", "0x1.477c39020d5e2p+109", "0x1.903ce5ad0089fp-110"),
    ("0x1.e555555555555p+4", "0x1.597a9bc9e6b7dp+104", "0x1.7b646461532d4p-105"),
    ("0x1.5555555555550p+0", "0x1.c9349c4c603edp-1", "0x1.1eae42fb560d5p+0"),
    ("0x1.aaaaaaaaaaaacp+2", "0x1.8508f0ed2d1e9p+8", "0x1.50ea6f9c5adbbp-9"),
    ("-0x1.aaaaaaaaaaaacp+2", "-0x1.6ea89770eb645p-10", "-0x1.657a1c40e0454p+9"),
    ("-0x1.6aaaaaaaaaaacp+2", "0x1.318c7e336ed3bp-7", "0x1.acf8eeb440530p+6"),
    ("0x1.56aaaaaaaaaabp+7", "0x1.ca9cde42c8965p+1021", "0x1.1dcd10281d7a7p-1022"),
    ("0x1.54aaaaaaaaaabp+7", "0x1.58a1f7aded678p+1014", "0x1.7c52e22ab73a3p-1015"),
    ("0x1.5555555555580p+0", "0x1.c9349c4c603e4p-1", "0x1.1eae42fb560dcp+0"),
    ("0x1.aaaaaaaaaaaa0p+2", "0x1.8508f0ed2d164p+8", "0x1.50ea6f9c5ae2ep-9"),
    ("-0x1.aaaaaaaaaaaa0p+2", "-0x1.6ea89770eb651p-10", "-0x1.657a1c40e0449p+9"),
    ("-0x1.6aaaaaaaaaaa0p+2", "0x1.318c7e336ed3bp-7", "0x1.acf8eeb440530p+6"),
    ("0x1.f555555555554p+5", "0x1.057a8220e90c6p+282", "0x1.f545c12e2bfcdp-283"),
    ("-0x1.f555555555554p+5", "-0x1.d046b9e7c84d7p-287", "-0x1.1a508dc531aebp+286"),
    ("-0x1.ed55555555554p+5", "0x1.c69a960849768p-281", "0x1.20524488072a4p+280"),
    ("0x1.0000000000000p+2", "0x1.8000000000000p+2", "0x1.5555555555555p-3"),
    ("0x1.fffffffffffffp+1", "0x1.7fffffffffffdp+2", "0x1.5555555555558p-3"),
    ("0x1.0000000000001p+2", "0x1.8000000000008p+2", "0x1.555555555554ep-3"),
    ("-0x1.0000000000000p+2", "nan", "0x0.0p+0"),
    ("-0x1.fffffffffffffp+1", "0x1.555555555555bp+46", "0x1.7fffffffffffap-47"),
    ("-0x1.0000000000001p+2", "-0x1.555555555554dp+45", "-0x1.8000000000009p-46"),
    ("0x1.0800000000000p+5", "0x1.956ad0aae33a5p+117", "0x1.434d2e783f5bcp-118"),
    ("0x1.07fffffffffffp+5", "0x1.956ad0aae32f3p+117", "0x1.434d2e783f64ap-118"),
    ("0x1.0800000000001p+5", "0x1.956ad0aae3456p+117", "0x1.434d2e783f52fp-118"),
    ("-0x1.0800000000000p+5", "nan", "0x0.0p+0"),
    ("-0x1.07fffffffffffp+5", "-0x1.3981254dd0dddp-76", "-0x1.a21627303a488p+75"),
    ("-0x1.0800000000001p+5", "0x1.3981254dd0cc7p-76", "0x1.a21627303a5fap+75"),
    ("0x1.1e083ba3443d4p+7", "0x1.5603bf6efb4b8p+815", "0x1.7f3c2cb33ac2ep-816"),
    ("0x1.1e083ba3443d3p+7", "0x1.5603bf6efb166p+815", "0x1.7f3c2cb33afe7p-816"),
    ("0x1.1e083ba3443d5p+7", "0x1.5603bf6efb807p+815", "0x1.7f3c2cb33a879p-816"),
    ("0x1.5733333333333p+7", "0x1.c3adadc5107b2p+1023", "0x0.488c147cad5f7p-1022"),
    ("0x1.5733333333332p+7", "0x1.c3adadc510329p+1023", "0x0.488c147cad6b2p-1022"),
    ("0x1.5733333333334p+7", "0x1.c3adadc510c3bp+1023", "0x0.488c147cad53dp-1022"),
    ("0x1.5766666666666p+7", "inf", "0x0.0p+0"),
    ("0x1.5766666666665p+7", "inf", "0x0.0p+0"),
    ("0x1.5766666666667p+7", "inf", "0x0.0p+0"),
    ("0x1.573fae561f647p+7", "inf", "0x0.0p+0"),
    ("0x1.573fae561f646p+7", "0x1.ffffffffff92dp+1023", "0x0.40000000000dap-1022"),
    ("0x1.573fae561f648p+7", "inf", "0x0.0p+0"),
    ("0x1.b7cdfd9d7bdbbp-34", "0x1.2a05f1ffb61ddp+33", "0x1.b7cdfd9de8e42p-34"),
    ("-0x1.b7cdfd9d7bdbbp-34", "-0x1.2a05f20049e23p+33", "-0x1.b7cdfd9d0ed33p-34"),
    ("0x0.0000000000001p-1022", "inf", "0x0.0000000000001p-1022"),
    ("-0x0.0000000000001p-1022", "-inf", "-0x0.0p+0"),
    ("0x1.129a601c68b1ap-30", "0x1.dd50814363e99p+29", "0x1.129a601f10c9ap-30"),
    ("-0x1.129a601c68b1ap-30", "-0x1.dd50814ca0301p+29", "-0x1.129a6019c099ap-30"),
    ("-0x1.0000000036f9cp+1", "-0x1.2a05f061d637bp+32", "-0x1.b7ce0000ae4f1p-33"),
    ("0x0.0p+0", "inf", "0x0.0p+0"),
    ("-0x0.0p+0", "-inf", "-0x0.0p+0"),
    ("-0x1.0000000000000p+0", "nan", "0x0.0p+0"),
    ("-0x1.0000000000000p+1", "nan", "0x0.0p+0"),
    ("-0x1.8000000000000p+1", "nan", "0x0.0p+0"),
    ("-0x1.1000000000000p+5", "nan", "0x0.0p+0"),
    ("-0x1.5400000000000p+7", "nan", "0x0.0p+0"),
    ("inf", "inf", "0x0.0p+0"),
    ("-inf", "nan", "0x0.0p+0"),
    ("nan", "nan", "nan"),
]


def test_gamma_factors_keep_their_bits():
    for x, gamma, rgamma in GAMMA_BITS:
        x = float.fromhex(x)
        assert specfun._gamma(x).hex() == gamma, x
        assert specfun._rgamma(x).hex() == rgamma, x


def test_inverse_z_overflow_falls_back_to_mpmath():
    # Gamma(171.5) * Gamma(-0.5) overflows, so the continuation is not
    # finite although the value is (about 3e-224): the branch must refuse
    # and gauss_2f1 must take the library value instead of returning nan
    a, b, c, z = 170.5, 170.0, 171.5, -20.0
    with pytest.raises(NumericFailure):
        specfun._inverse_z_2f1(a, b, c, z)
    got = gauss_2f1(a, b, c, z)
    truth = specfun._mpmath_2f1(a, b, c, z)
    assert got == truth and math.isfinite(got.real) and got.real > 0.0

# ----- partition enumeration -----

def test_partitions_of_zero():
    terms = enumerate_weighted_partitions(0, 5)
    assert len(terms) == 1
    assert terms[0].parts == ()
    assert terms[0].arrangement_count == 1
    assert terms[0].multinomial_weight == 1


def test_partitions_j2_three_nodes():
    terms = {t.parts: t for t in enumerate_weighted_partitions(2, 3)}
    assert set(terms) == {(2,), (1, 1)}
    assert terms[(2,)].arrangement_count == 3
    assert terms[(2,)].multinomial_weight == 1
    assert terms[(1, 1)].arrangement_count == 3
    assert terms[(1, 1)].multinomial_weight == 2


def test_partition_arrangements_count_compositions():
    # summing the placement counts over all partitions of j recovers the
    # stars-and-bars count of weak compositions of j into M labeled parts
    terms = enumerate_weighted_partitions(4, 10)
    total = sum(t.arrangement_count for t in terms)
    assert total == math.comb(4 + 10 - 1, 4) == 715


def _compositions(j, parts):
    if parts == 1:
        yield (j,)
        return
    for first in range(j + 1):
        for rest in _compositions(j - first, parts - 1):
            yield (first,) + rest


def test_partition_collapse_equals_composition_sum():
    # sum over weak compositions (t_1..t_M) of j of
    #   j!/(t_1!..t_M!) prod f(t_i)
    # must equal the collapsed partition sum for arbitrary positive f.
    rng = np.random.default_rng(42)
    for rep in range(20):
        f = rng.uniform(0.1, 2.0, size=9)
        for j, M in product(range(7), range(1, 9)):
            brute = 0.0
            for comp in _compositions(j, M):
                w = math.factorial(j)
                prod = 1.0
                for t in comp:
                    w //= math.factorial(t)
                    prod *= f[t]
                brute += w * prod
            collapsed = 0.0
            for term in enumerate_weighted_partitions(j, M):
                prod = 1.0
                for t in term.parts:
                    prod *= f[t]
                collapsed += (term.arrangement_count * term.multinomial_weight
                              * prod * f[0] ** (M - len(term.parts)))
            assert abs(collapsed - brute) <= 1e-12 * max(1.0, abs(brute)), \
                (rep, j, M)


def test_partition_invalid_requests():
    with pytest.raises(InvalidParameterError):
        enumerate_weighted_partitions(-1, 3)
    with pytest.raises(InvalidParameterError):
        enumerate_weighted_partitions(2, -1)


def test_placement_counts_at_the_largest_interferer_count():
    # M = 2^53: k parts take M!/(M-k)! = perm(M, k) ordered node choices,
    # divided by the orderings of equal parts
    M = 2 ** 53
    for j in range(7):
        terms = enumerate_weighted_partitions(j, M)
        for t in terms:
            want = math.perm(M, len(t.parts))
            for mult in Counter(t.parts).values():
                want //= math.factorial(mult)
            assert t.arrangement_count == want, t.parts
        # stars and bars: the weak compositions of j into M labeled parts
        assert sum(t.arrangement_count for t in terms) \
            == math.comb(j + M - 1, j)
    terms = {t.parts: t for t in enumerate_weighted_partitions(3, M)}
    assert terms[(1, 1, 1)].arrangement_count == M * (M - 1) * (M - 2) // 6
    assert terms[(2, 1)].arrangement_count == M * (M - 1)
    assert terms[(3,)].arrangement_count == M


def test_partitions_skip_overlong_parts():
    # j = 3 onto 2 nodes: (1,1,1) needs three nodes and must be absent
    parts = {t.parts for t in enumerate_weighted_partitions(3, 2)}
    assert parts == {(3,), (2, 1)}
