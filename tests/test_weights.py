"""Weight functions, smoothing quadrature, and the coherent-term kernels.

Frozen constants in this file were computed with the QUADPACK oracles in
``oracles.py`` and pinned; the tests assert both that the package matches
the live oracle and that neither side has drifted from the pinned value.
"""

from __future__ import annotations

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import gibbslab.generators
from gibbslab.bohr import bohr_spectrum
from gibbslab.errors import ValidationError
from gibbslab.generators import _omega_quadrature_nodes
from gibbslab.models import schrodinger_line_model
from gibbslab.oft import overlap_table
from gibbslab.weights import (
    COHERENT_L1_LIMIT,
    FILTER_SQUARED_MASS,
    HERMITE_ORDER,
    MAX_BANDWIDTH,
    MIN_BANDWIDTH,
    PHI_LIBRARY,
    GaussianFilter,
    TIME_KERNEL_ENVELOPE_SCALE,
    WeightFunction,
    balanced_gamma,
    coherent_time_envelope,
    coherent_time_kernel,
    coherent_time_kernel_l1,
    delocalised_limit_gamma,
    kms_defect,
    kms_gamma,
    smoothed_weight_table,
    smoothing_rule,
    unshifted_gamma,
)

import oracles

# ---------------------------------------------------------------------------
# Frozen oracle values (QUADPACK; see oracles.py for the integral forms)
# ---------------------------------------------------------------------------

SMOOTHED_AT_0P9 = {
    ("gaussian", -3.0): 0.038719586882804809,
    ("gaussian", 0.0): 1.2472810280607953,
    ("gaussian", 1.3): 0.25595960169591669,
    ("gaussian", 7.5): 9.346289561847868e-16,
    ("sech", -3.0): 3.2923135204550755,
    ("sech", 0.0): 1.6021036229621937,
    ("sech", 1.3): 0.70517636339410061,
    ("sech", 7.5): 0.0019509732135325273,
    ("exp_abs", -3.0): 0.45846303093182689,
    ("exp_abs", 0.0): 1.0777272527259762,
    ("exp_abs", 1.3): 0.28352498467413673,
    ("exp_abs", 7.5): 2.6726083141301835e-05,
}

PAIR_COEFFICIENT_AT_0P9 = {
    (1.0, -1.0): -0.16514020287520412j,
    (2.3, 1.1): -0.01986206667688525j,
    (-4.0, -3.2): 0.00093510123668170541j,
}

# Every frozen pair above is a pair of Bohr frequencies of this spectrum.
PAIR_SPECTRUM_ENERGIES = (0.0, 1.0, 1.1, 2.3, 3.2, 4.0)

# Bohr frequencies 0, +-0.5, +-1.5, +-2 (closed under negation): the pairs
# on which the scalar stationarity identity is checked.
IDENTITY_SPECTRUM_ENERGIES = (0.0, 0.5, 2.0)

TIME_KERNEL_AT = (0.4, 0.9, 0.026149028951795081)

ENVELOPE_AT = (0.3, 0.9, 2.1751769049652379 - 0.60551204398646519j)

L1_TABLE = {
    4.0: 0.040937880408518063,
    2.0: 0.049162588531839281,
    1.0: 0.053361667821107676,
    0.5: 0.054832589342810073,
    0.25: 0.055246271532054803,
    0.125: 0.055353206359833346,
    0.0625: 0.055380172951430773,
}

# Each library weight at WEIGHT_POINTS: 40-digit mpmath values of
# e^{-w/2} phi(w + shift), with the double w and the double shift
# 0.25 sigma^2 taken exactly, rounded to the nearest double.  Balanced
# weights at sigma = 1e-6, 1 and 3; the unshifted one, which is the same
# at every sigma; and glauber, 1/(1 + e^w).  The points near -27 are where
# the gaussian's phi(w + shift) is subnormal while its weight is normal.
WEIGHT_POINTS = (
    -700.0, -650.0, -600.0, -550.0, -500.0, -450.0, -400.0, -350.0, -300.0, -250.0,
    -200.0, -150.0, -100.0, -50.0, -29.0625, -27.0625, -26.8125, -25.75, -19.5,
    -6.5, -0.375, 0.0, 0.625, 7.25, 19.75, 26.25, 50.0, 100.0, 150.0, 200.0, 250.0,
    300.0, 350.0, 400.0, 450.0, 500.0, 550.0, 600.0, 650.0, 700.0,
)
WEIGHT_VALUES = {
    ("glauber", "kms", None): (
        1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0,
        0.9999999999997611, 0.9999999999982343, 0.9999999999977328, 0.9999999999934398,
        0.9999999966017322, 0.998498817743263, 0.5926665999540698, 0.5,
        0.34864513533394575, 0.0007096703991005881, 2.646573631904765e-09,
        3.978962535821408e-12, 1.9287498479639178e-22, 3.720075976020836e-44,
        7.175095973164411e-66, 1.3838965267367376e-87, 2.6691902155412764e-109,
        5.148200222412013e-131, 9.92959039626498e-153, 1.9151695967140057e-174,
        3.693883068487256e-196, 7.124576406741286e-218, 1.374152566130957e-239,
        2.6503965530043108e-261, 5.111951948651156e-283, 9.85967654375977e-305,
    ),
    ("gaussian", "unshifted", None): (
        0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
        6.43323715504e-313, 4.01371521197783e-307, 4.2379570161708474e-283,
        1.2413505895936936e-161, 1.1548224173015786e-17, 1.0479910020166328, 1.0,
        0.4950358969261986, 3.9634994116425215e-25, 2.0386874235900106e-174,
        1.1062250497462162e-305, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
        0.0, 0.0, 0.0,
    ),
    ("gaussian", "balanced", 1e-06): (
        0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
        6.43323715514e-313, 4.013715212031639e-307, 4.237957016225411e-283,
        1.2413505896057966e-161, 1.1548224173053317e-17, 1.0479910020168293, 1.0,
        0.4950358969260439, 3.963499411628154e-25, 2.0386874235698787e-174,
        1.1062250497316969e-305, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
        0.0, 0.0, 0.0,
    ),
    ("gaussian", "balanced", 1.0): (
        0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
        4.5481351835034674e-307, 2.5041684947453977e-301, 1.554370684711446e-277,
        2.0004248841356954e-157, 2.79787860206236e-16, 1.1875293827631006,
        0.9394130628134758, 0.34023286457404905, 9.922426625012578e-27,
        9.852563212336883e-179, 2.0729317739134e-311, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
        0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
    ),
    ("gaussian", "balanced", 3.0): (
        0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
        1.2363113222692721e-306, 3.153106364708361e-262, 6.3866677242676894e-257,
        5.654755392795046e-235, 1.0106933942453002e-125, 3.689886323573741e-07,
        0.035860280096566576, 0.006329715427485747, 0.0001881774796065311,
        1.7006130653966015e-41, 3.2569624386221786e-215, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
        0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
    ),
    ("sech", "unshifted", None): (
        2.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0,
        1.9999999999995222, 1.9999999999964686, 1.9999999999954656, 1.9999999999868796,
        1.9999999932034644, 1.996997635486526, 1.1853331999081396, 1.0,
        0.6972902706678915, 0.0014193407982011762, 5.29314726380953e-09,
        7.957925071642816e-12, 3.8574996959278356e-22, 7.440151952041672e-44,
        1.4350191946328822e-65, 2.767793053473475e-87, 5.338380431082553e-109,
        1.0296400444824027e-130, 1.985918079252996e-152, 3.8303391934280114e-174,
        7.387766136974512e-196, 1.4249152813482571e-217, 2.748305132261914e-239,
        5.3007931060086215e-261, 1.0223903897302312e-282, 1.971935308751954e-304,
    ),
    ("sech", "balanced", 1e-06): (
        2.00000000000025, 2.00000000000025, 2.00000000000025, 2.00000000000025,
        2.00000000000025, 2.00000000000025, 2.00000000000025, 2.00000000000025,
        2.00000000000025, 2.00000000000025, 2.00000000000025, 2.00000000000025,
        2.00000000000025, 2.00000000000025, 1.9999999999997722, 1.9999999999967186,
        1.9999999999957156, 1.9999999999871296, 1.9999999932037145, 1.996997635486775,
        1.1853331999081669, 1.0, 0.6972902706678651, 0.001419340798200999,
        5.293147263808868e-09, 7.95792507164182e-12, 3.857499695927353e-22,
        7.440151952040742e-44, 1.4350191946327027e-65, 2.767793053473129e-87,
        5.338380431081885e-109, 1.029640044482274e-130, 1.9859180792527475e-152,
        3.8303391934275324e-174, 7.387766136973589e-196, 1.424915281348079e-217,
        2.7483051322615704e-239, 5.300793106007959e-261, 1.0223903897301035e-282,
        1.9719353087517077e-304,
    ),
    ("sech", "balanced", 1.0): (
        2.2662969061336526, 2.2662969061336526, 2.2662969061336526, 2.2662969061336526,
        2.2662969061336526, 2.2662969061336526, 2.2662969061336526, 2.2662969061336526,
        2.2662969061336526, 2.2662969061336526, 2.2662969061336526, 2.2662969061336526,
        2.2662969061336526, 2.2662969061336526, 2.266296906132957, 2.2662969061285145,
        2.2662969061270553, 2.2662969061145626, 2.266296896244752, 2.2619303533272133,
        1.20387815938614, 0.9922380414751257, 0.6667784811511802, 0.0012527605146367313,
        4.671186067970643e-09, 7.022844226731261e-12, 3.4042315333773333e-22,
        6.565911052435507e-44, 1.2663999944129592e-65, 2.442568796685501e-87,
        4.71110419524857e-109, 9.086541500327855e-131, 1.7525665537275178e-152,
        3.3802624740485974e-174, 6.519680732899369e-196, 1.2574833222352942e-217,
        2.425370766578486e-239, 4.677933497294385e-261, 9.022563521691864e-283,
        1.7402268020707974e-304,
    ),
    ("sech", "balanced", 3.0): (
        6.160433697836062, 6.160433697836062, 6.160433697836062, 6.160433697836062,
        6.160433697836062, 6.160433697836062, 6.160433697836062, 6.160433697836062,
        6.160433697836062, 6.160433697836062, 6.160433697836062, 6.160433697836062,
        6.160433697836062, 6.160433697836062, 6.1604336978220955, 6.160433697732863,
        6.160433697703551, 6.160433697452628, 6.160433499212183, 6.073795655885054,
        0.8191173859218757, 0.5873940566351109, 0.32898767247549,
        0.00046108522211227396, 1.7184333233554705e-09, 2.5835600095709086e-12,
        1.2523467941170556e-22, 2.415463688751371e-44, 4.658825222441571e-66,
        8.985708439474645e-88, 1.7331183786484813e-109, 3.3427518093217304e-131,
        6.447332044010398e-153, 1.243529069965795e-174, 2.3984565046352393e-196,
        4.626022618663288e-218, 8.922440422424461e-240, 1.7209155608218294e-261,
        3.3192156262938435e-283, 6.401936634573711e-305,
    ),
    ("exp_abs", "unshifted", None): (
        9.92959039626498e-153, 7.149791569445333e-142, 5.148200222412013e-131,
        3.706956387834846e-120, 2.6691902155412764e-109, 1.921947727823849e-98,
        1.3838965267367376e-87, 9.964733010103672e-77, 7.175095973164411e-66,
        5.166420632837861e-55, 3.720075976020836e-44, 2.6786369618080778e-33,
        1.9287498479639178e-22, 1.3887943864964021e-11, 4.888305162912579e-07,
        1.3287791096307797e-06, 1.505703992545633e-06, 2.5612887709420388e-06,
        5.829466373086881e-05, 0.03877420783172201, 0.8290291181804004, 1.0,
        0.391605626676799, 1.892550641405186e-05, 1.3615261080896538e-13,
        7.93697066318849e-18, 2.6786369618080778e-33, 7.175095973164411e-66,
        1.921947727823849e-98, 5.148200222412013e-131, 1.3790159402541388e-163,
        3.693883068487256e-196, 9.894571719847004e-229, 2.6503965530043108e-261,
        7.09945017032607e-294, 0.0, 0.0, 0.0, 0.0, 0.0,
    ),
    ("exp_abs", "balanced", 1e-06): (
        9.929590396267462e-153, 7.14979156944712e-142, 5.148200222413301e-131,
        3.706956387835773e-120, 2.669190215541944e-109, 1.9219477278243296e-98,
        1.3838965267370836e-87, 9.964733010106163e-77, 7.175095973166204e-66,
        5.166420632839153e-55, 3.720075976021766e-44, 2.6786369618087477e-33,
        1.9287498479644e-22, 1.3887943864967493e-11, 4.888305162913801e-07,
        1.328779109631112e-06, 1.5057039925460092e-06, 2.5612887709426787e-06,
        5.829466373088338e-05, 0.0387742078317317, 0.8290291181806076, 0.99999999999975,
        0.39160562667670107, 1.8925506414047126e-05, 1.3615261080893135e-13,
        7.936970663186506e-18, 2.6786369618074083e-33, 7.175095973162617e-66,
        1.9219477278233687e-98, 5.148200222410727e-131, 1.379015940253794e-163,
        3.6938830684863326e-196, 9.894571719844531e-229, 2.6503965530036482e-261,
        7.099450170324295e-294, 0.0, 0.0, 0.0, 0.0, 0.0,
    ),
    ("exp_abs", "balanced", 1.0): (
        1.2749846446102736e-152, 9.180514099187545e-142, 6.610419935774509e-131,
        4.759826220532923e-120, 3.4273080787292297e-109, 2.4678297320710757e-98,
        1.7769583143958575e-87, 1.279497045548046e-76, 9.213005596716968e-66,
        6.63381540586378e-55, 4.77667210522021e-44, 3.439437941040803e-33,
        2.4765638272182875e-22, 1.783247290814639e-11, 6.276708073705662e-07,
        1.706186149929628e-06, 1.9333621964368023e-06, 3.2887598813664843e-06,
        7.48518298877006e-05, 0.049787068367863944, 1.0644944589178593,
        0.7788007830714049, 0.3049827687110593, 1.4739199215286483e-05,
        1.0603575991523846e-13, 6.181318967705965e-18, 2.08612456342014e-33,
        5.587970362512927e-66, 1.4968143954515208e-98, 4.009422364622857e-131,
        1.073978694137873e-163, 2.876799026312079e-196, 7.705900203573024e-229,
        2.0641309109295095e-261, 5.5290573520263614e-294, 0.0, 0.0, 0.0, 0.0, 0.0,
    ),
    ("exp_abs", "balanced", 3.0): (
        9.420933064300469e-152, 6.783533369592056e-141, 4.884476374292739e-130,
        3.5170622964678824e-119, 2.5324571662048504e-108, 1.8234932332882174e-97,
        1.313004467053224e-86, 9.454275447970538e-76, 6.807541519390373e-65,
        4.9017634183877866e-54, 3.5295098151669305e-43, 2.5414199895141027e-32,
        1.829946905189832e-21, 1.3176514270095466e-10, 4.637894807322208e-06,
        1.2607105177048523e-05, 1.4285721729023311e-05, 2.430083125932946e-05,
        0.0005530843701478336, 0.36787944117144233, 0.18498139990730428,
        0.10539922456186433, 0.04127492938579755, 1.994733700481656e-06,
        1.435037960133826e-14, 8.365505532703331e-19, 2.823262586573196e-34,
        7.562495517284842e-67, 2.025718001610708e-99, 5.426163113314438e-132,
        1.4534721076123646e-164, 3.8933241104075685e-197, 1.0428801866436266e-229,
        2.793497414680925e-262, 7.482765427679634e-295, 0.0, 0.0, 0.0, 0.0, 0.0,
    ),
}

# Relative accuracy of each library weight where its value is normal.
# sech and glauber take one exponential of -|x| at an exact argument.  The
# gaussian takes one exponential of a sum that reaches 745 in magnitude
# where the weight is normal, and one rounding of that sum is up to 8.3e-14
# of the value.  exp_abs rounds its exponent only where w + shift >= 0,
# once, in -3(w + shift)/2: net of the argument's rounding it reads 1.7e-14
# at sigma = 1e-6, omega = 200 here and 3.0e-14 at sigma = 0.1, omega = 272
# in the tail test below.
WEIGHT_BOUND = {"glauber": 1e-15, "sech": 1e-15, "gaussian": 1e-13, "exp_abs": 3.2e-14}


# ---------------------------------------------------------------------------
# Weight families
# ---------------------------------------------------------------------------


@given(st.lists(st.floats(-60.0, 60.0), min_size=1, max_size=30))
def test_kms_weights_satisfy_detailed_balance(omegas):
    grid = np.asarray(omegas)
    for kind in ("glauber", "metropolis"):
        assert kms_defect(kms_gamma(kind), grid) < 1e-12


@given(st.lists(st.floats(-40.0, 40.0), min_size=1, max_size=30))
def test_delocalised_limit_weight_satisfies_detailed_balance(omegas):
    grid = np.asarray(omegas)
    for phi in PHI_LIBRARY:
        assert kms_defect(delocalised_limit_gamma(phi), grid) < 1e-12


def test_delocalised_limit_value():
    for phi in PHI_LIBRARY:
        w = delocalised_limit_gamma(phi)
        profile = oracles.PHI[phi]
        for omega in (-2.0, 0.0, 0.7, 3.5):
            want = math.pi * math.exp(-0.5 * omega) * float(profile(np.array([omega]))[0])
            assert float(w(omega)) == pytest.approx(want, rel=1e-14)


@given(st.floats(-30.0, 30.0), st.sampled_from(["gaussian", "sech", "exp_abs"]))
def test_balanced_weight_is_shifted_tilted_profile(omega, phi):
    sigma = 0.8
    w = balanced_gamma(phi, sigma)
    profile = oracles.PHI[phi]
    want = math.exp(-0.5 * omega) * float(profile(np.array([omega + sigma * sigma / 4.0]))[0])
    assert float(w(omega)) == pytest.approx(want, rel=1e-12, abs=1e-300)


def _weight_tolerance(name: str, omega: np.ndarray, shift: float) -> np.ndarray:
    """Relative tolerance of the weight ``name`` at each ``omega``: its
    bound, plus what the one rounding of the argument ``omega + shift``
    moves the weight by, ``|d log gamma / dx|`` times that rounding.  The
    rounding is exactly 0 wherever the sum is a double."""
    slope = 2.0 * np.abs(omega + shift) + 1.0 if name == "gaussian" else 1.0
    return WEIGHT_BOUND[name] + slope * oracles.sum_rounding(omega, shift)


@pytest.mark.parametrize("name", ["gaussian", "sech", "exp_abs", "glauber"])
def test_library_weights_match_40_digit_values(name):
    """Where its value is normal, each library weight is within its bound
    of the frozen 40-digit value, balanced and unshifted at every sigma."""
    points = np.asarray(WEIGHT_POINTS)
    if name == "glauber":
        cases = [(kms_gamma("glauber"), 0.0, WEIGHT_VALUES[name, "kms", None])]
    else:
        cases = []
        for sigma in (1e-6, 1.0, 3.0):
            shift = 0.25 * sigma * sigma
            cases.append((balanced_gamma(name, sigma), shift, WEIGHT_VALUES[name, "balanced", sigma]))
            cases.append((unshifted_gamma(name, sigma), 0.0, WEIGHT_VALUES[name, "unshifted", None]))
    for weight, shift, frozen in cases:
        frozen = np.asarray(frozen)
        normal = frozen >= np.finfo(float).tiny
        assert np.count_nonzero(normal) >= 10
        rel = np.abs(weight(points[normal]) - frozen[normal]) / frozen[normal]
        tolerance = _weight_tolerance(name, points[normal], shift)
        assert np.all(rel <= tolerance), (weight.kind, shift, float(np.max(rel / tolerance)))


def test_weights_are_nonnegative_and_vectorized():
    grid = np.linspace(-20, 20, 101)
    for maker in (
        lambda: kms_gamma("glauber"),
        lambda: balanced_gamma("sech", 1.2),
        lambda: unshifted_gamma("gaussian", 0.7),
        lambda: delocalised_limit_gamma("exp_abs"),
    ):
        values = maker()(grid)
        assert values.shape == grid.shape
        assert np.all(values >= 0.0)
        assert np.all(np.isfinite(values))


@pytest.mark.parametrize("phi", sorted(PHI_LIBRARY))
def test_weight_tails_stay_finite_and_vanish_where_the_profile_underflows(phi):
    """Out to |omega| = 2000, where ``e^{-omega/2}`` overflows and every
    library profile underflows, each profile weight is finite, and the
    delocalised limit is ``pi`` times the unshifted weight bit for bit.
    Against the weight in long double (``oracles.profile_weight_extended``)
    it is exactly zero where the true weight is below half the smallest
    subnormal, and elsewhere within the tolerance of the 40-digit test,
    relative to the smallest normal where the weight is below it.  The
    true weight does not underflow on the ``omega -> -infinity`` side for
    any profile: sech tends to ``2 e^{shift/2}``, exp_abs is 1.9e-174 at
    ``omega = -800``, and the gaussian is subnormal near ``omega = -27``
    where ``phi`` underflows first."""
    grid = np.concatenate([np.linspace(-2000.0, 2000.0, 8001), np.linspace(-60.0, 60.0, 24001)])
    half_subnormal = np.ldexp(np.longdouble(1.0), -1075)
    limit = delocalised_limit_gamma(phi)(grid)
    for sigma in (0.1, 1.0, 3.0):
        unshifted = unshifted_gamma(phi, sigma)(grid)
        assert limit.tobytes() == (FILTER_SQUARED_MASS * unshifted).tobytes(), sigma
        for values, shift, scale in ((balanced_gamma(phi, sigma)(grid), 0.25 * sigma * sigma, 1.0),
                                     (unshifted, 0.0, 1.0), (limit, 0.0, FILTER_SQUARED_MASS)):
            assert np.all(np.isfinite(values)) and np.all(values >= 0.0), (sigma, shift)
            true = scale * oracles.profile_weight_extended(phi, grid, shift)
            underflow = true < half_subnormal
            assert np.count_nonzero(underflow) > 100
            assert np.all(values[underflow] == 0.0), (sigma, shift)
            err = np.abs(values[~underflow] - true[~underflow])
            floor = np.maximum(true[~underflow], np.finfo(float).tiny)
            tolerance = _weight_tolerance(phi, grid[~underflow], shift)
            assert np.all(err <= tolerance * floor), (sigma, shift)


def _production_phi(name: str):
    """``phi(x) = e^{x/2} gamma(x)`` of the unshifted weight ``gamma``."""
    weight = unshifted_gamma(name, 1.0)
    return lambda x: np.exp(0.5 * np.asarray(x, dtype=np.float64)) * weight(x)


def test_phi_profiles_are_even():
    grid = np.linspace(0.0, 15.0, 61)
    for name in PHI_LIBRARY:
        phi = _production_phi(name)
        assert np.allclose(phi(grid), phi(-grid), rtol=1e-13)


@pytest.mark.parametrize("name", sorted(PHI_LIBRARY))
def test_library_profiles_pass_the_profile_checks(name):
    """Each library profile, read off its weight, is even, non-negative and
    has a decaying tilted tail (``oracles.profile_fault``)."""
    assert oracles.profile_fault(_production_phi(name)) is None


def test_unknown_names_rejected():
    with pytest.raises(ValidationError):
        kms_gamma("arrhenius")
    for phi in ("lorentzian", "Gaussian", 5, None, ["gaussian"], oracles.PHI["gaussian"]):
        with pytest.raises(ValidationError, match="unknown profile name"):
            balanced_gamma(phi, 1.0)


def test_bad_bandwidth_rejected():
    for bad in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValidationError):
            balanced_gamma("gaussian", bad)


def _infinite_beyond_20(x):
    x = np.asarray(x, dtype=np.float64)
    with np.errstate(over="ignore"):
        return np.where(np.abs(x) > 20.0, np.inf, np.exp(-np.square(x)))


@pytest.mark.parametrize(
    "phi, message",
    [
        (lambda x: np.full(np.shape(x), np.nan), "is not finite on the test grid"),
        (lambda x: np.exp(-np.square(x)) * (1.0 + 0.1 * x), "is not even"),
        (lambda x: np.exp(-np.square(x)) - 0.5, "is negative"),
        (_infinite_beyond_20, "has a non-finite tilted tail"),
        (lambda x: 1.0 / (1.0 + np.square(x)), "decays too slowly"),
    ],
    ids=["nan", "odd_part", "negative", "infinite_tail", "polynomial_tail"],
)
def test_inadmissible_user_profiles_rejected(phi, message):
    """Each of the profile checks that the library profiles are held to
    refuses a profile that breaks it, naming the fault, so those checks can
    fail."""
    assert oracles.profile_fault(phi) == message


# ---------------------------------------------------------------------------
# Smoothing quadrature
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("phi", ["gaussian", "sech", "exp_abs"])
def test_smoothed_weight_matches_quadpack(phi):
    w = balanced_gamma(phi, 0.9)
    centers = (-3.0, 0.0, 1.3, 7.5)
    table = smoothed_weight_table(w, 0.9, centers)
    for center, got in zip(centers, table):
        frozen = SMOOTHED_AT_0P9[(phi, center)]
        live = oracles.smoothed_weight_quad(center, 0.9, w)
        assert live == pytest.approx(frozen, rel=1e-10)
        assert got == pytest.approx(frozen, rel=1e-10)


def _counting_gauss_hermite_weight(counts: list) -> WeightFunction:
    """The balanced gaussian weight at sigma 0.7 with its closed form
    removed, so the Gauss-Hermite rule smooths it; each call appends the
    number of points it was evaluated on to ``counts``."""
    base = balanced_gamma("gaussian", 0.7)

    def evaluate(w):
        counts.append(np.size(w))
        return base.evaluate(w)

    return dataclasses.replace(base, evaluate=evaluate, smoothed=None)


@pytest.mark.parametrize("make", ["sech", "gauss_hermite", "gaussian", "exp_abs"])
def test_smoothed_weight_table_on_repeated_centres_is_the_distinct_call_scattered(make):
    """On 700 distinct centres, each repeated up to five times and shuffled,
    ``H`` is the call on the distinct centres scattered back, bit for bit:
    the closed forms are elementwise, and the Gauss-Hermite rule evaluates
    each distinct centre once, in the same chunks."""
    rng = np.random.default_rng(23)
    distinct = np.unique(rng.uniform(-40.0, 40.0, 700))
    repeats = rng.integers(1, 6, distinct.size)
    inverse = rng.permutation(np.repeat(np.arange(distinct.size), repeats))
    counts = []
    if make == "gauss_hermite":
        weight = _counting_gauss_hermite_weight(counts)
    else:
        weight = balanced_gamma(make, 0.7)
    want = smoothed_weight_table(weight, 0.7, distinct)[inverse]
    counts.clear()
    got = smoothed_weight_table(weight, 0.7, distinct[inverse])
    assert got.tobytes() == want.tobytes()
    if make == "gauss_hermite":
        assert sum(counts) == distinct.size * HERMITE_ORDER


def _balance_defects(weight, sigma: float, centers) -> np.ndarray:
    """Relative defects of ``H(c) = e^{-c} H(-c)`` at each center."""
    c = np.asarray(centers)
    h = smoothed_weight_table(weight, sigma, np.concatenate([c, -c]))
    h_plus, expected = h[: c.size], np.exp(-c) * h[c.size :]
    return np.abs(h_plus - expected) / np.maximum(np.abs(h_plus), np.abs(expected))


def test_smoothed_weight_balance_identity():
    """The tilted profile turns Gaussian smoothing into an exact symmetry;
    without the ``sigma^2/4`` shift the symmetry fails visibly."""
    taus = (0.3, 1.0, 2.7, 6.0)
    assert np.all(_balance_defects(balanced_gamma("gaussian", 1.1), 1.1, taus) < 1e-11)
    # Half the frequency sums of the tilted-moment identity
    # A(-zeta) = e^{-zeta/2} A(zeta), which is this symmetry at c = zeta/2.
    centers = (0.25, 0.75, 1.5)
    assert np.all(_balance_defects(balanced_gamma("gaussian", 1.0), 1.0, centers) < 1e-11)
    assert np.all(_balance_defects(unshifted_gamma("gaussian", 1.0), 1.0, centers) > 1e-3)


# The bandwidths the closed-form gaussian smoothing is checked at.
CLOSED_FORM_SIGMAS = (3.0, 1.0, 0.1, 0.01, 0.001)
SHIFT_FORMS = pytest.mark.parametrize(
    "make", [balanced_gamma, unshifted_gamma], ids=["balanced", "unshifted"]
)


@SHIFT_FORMS
@pytest.mark.parametrize("sigma", CLOSED_FORM_SIGMAS)
def test_gaussian_closed_form_matches_quadpack(make, sigma):
    weight = make("gaussian", sigma)
    centers = np.array([-40.0, -5.0, -1.3, -0.25, 0.0, 0.7, 2.0, 6.0, 30.0])
    assert smoothing_rule(weight) == "closed_form"
    got = smoothed_weight_table(weight, sigma, centers)
    want = np.array([oracles.smoothed_weight_quad(c, sigma, weight) for c in centers])
    assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))


@SHIFT_FORMS
def test_gaussian_closed_form_matches_gauss_hermite_on_line32(make):
    """The gaussian weight with its closed form removed is smoothed by the
    Gauss-Hermite rule; on every distinct midpoint the overlap table of
    line32 reads, the two agree to roundoff."""
    freqs = bohr_spectrum(schrodinger_line_model(32).eigensystem()).frequencies
    gaps = freqs[:, None] - freqs[None, :]
    mids = 0.5 * (freqs[:, None] + freqs[None, :])
    for sigma in CLOSED_FORM_SIGMAS:
        centers = np.unique(mids[np.square(gaps) <= 800.0 * sigma * sigma])
        closed = make("gaussian", sigma)
        quadrature = dataclasses.replace(closed, smoothed=None)
        assert smoothing_rule(quadrature) == "gauss_hermite"
        want = smoothed_weight_table(quadrature, sigma, centers)
        got = smoothed_weight_table(closed, sigma, centers)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(want), sigma


@pytest.mark.parametrize("sigma", CLOSED_FORM_SIGMAS)
def test_gaussian_closed_form_balance(sigma):
    """``H(c) = e^{-c} H(-c)`` holds to roundoff on |c| <= 70 wherever ``H``
    is above 1e-12 of its maximum; the unshifted control breaks it."""
    c = np.linspace(-70.0, 70.0, 2801)
    for make, balanced in ((balanced_gamma, True), (unshifted_gamma, False)):
        weight = make("gaussian", sigma)
        h = smoothed_weight_table(weight, sigma, c)
        with np.errstate(invalid="ignore"):
            defects = _balance_defects(weight, sigma, c)[h > 1e-12 * np.max(h)]
        if balanced:
            assert np.max(defects) < 1e-13
        else:
            assert np.max(defects) > 1e-6


def test_smoothing_rule_follows_the_profile():
    """The rule reads only the weight: the gaussian and exp_abs profiles
    carry a closed form, sech and a weight stripped of its closed form are
    smoothed by Gauss-Hermite."""
    for make in (balanced_gamma, unshifted_gamma):
        assert smoothing_rule(make("gaussian", 0.9)) == "closed_form"
        assert smoothing_rule(make("exp_abs", 0.9)) == "closed_form"
        assert smoothing_rule(make("sech", 0.9)) == "gauss_hermite"
    quadrature = dataclasses.replace(balanced_gamma("gaussian", 0.9), smoothed=None)
    assert smoothing_rule(quadrature) == "gauss_hermite"


def _flat_top_weight(sigma: float) -> WeightFunction:
    """The balanced weight of the flat-top profile ``e^{-max(|x|, a)}``,
    ``a = 0.61803``, built by hand: kinked at both ends of the top."""
    a, shift = 0.61803, 0.25 * sigma * sigma
    return WeightFunction(
        kind="balanced_from_phi",
        evaluate=lambda w: np.exp(-0.5 * w - np.maximum(np.abs(w + shift), a)),
        sigma=sigma,
        breakpoints=(-a - shift, a - shift),
    )


def test_kinked_weight_without_a_closed_form_is_refused():
    """No rule here integrates across a kink, so a hand-built weight with
    breakpoints but no closed form is refused by the smoothing and by the
    node sum's lattice, not integrated straight across its kinks; so is
    exp_abs stripped of its closed form."""
    sigma = 0.5
    stripped = dataclasses.replace(balanced_gamma("exp_abs", sigma), smoothed=None)
    freqs = np.array([-1.0, 0.0, 1.0])
    for weight in (_flat_top_weight(sigma), stripped):
        with pytest.raises(ValidationError, match="no closed-form smoothing"):
            smoothed_weight_table(weight, sigma, freqs)
        with pytest.raises(ValidationError, match="no closed-form smoothing"):
            _omega_quadrature_nodes(weight, sigma, freqs)


# The exp_abs closed form is checked over the whole accepted bandwidth range.
EXP_ABS_SIGMAS = (MIN_BANDWIDTH, 1e-3, 0.1, 0.7, 2.0, MAX_BANDWIDTH)


@SHIFT_FORMS
@pytest.mark.parametrize("sigma", EXP_ABS_SIGMAS)
def test_exp_abs_closed_form_over_the_accepted_range(make, sigma):
    """exp_abs's ``H`` in closed form on centres from -600 to 600 and densely
    across the kink ``w + shift = 0``: every value is finite, none is
    negative, and no floating-point warning escapes.  ``H(c)`` is at least
    ``sigma e^{-3|c|/2 - 3}``, a normal double for ``|c| <= 400``, so every
    value there is positive; past ``c`` of about 470 it falls below the
    double range.  Each value is within 1e-12 relative of the plain ``erfc`` form
    (``oracles.exp_abs_smoothed``) wherever that is a normal double, and of
    QUADPACK at centres about the kink and far from it."""
    weight = make("exp_abs", sigma)
    shift = 0.25 * sigma * sigma if make is balanced_gamma else 0.0
    assert smoothing_rule(weight) == "closed_form"
    kink = -shift
    centers = np.concatenate(
        [np.linspace(-600.0, 600.0, 1201), kink + sigma * np.linspace(-10.0, 10.0, 201)]
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            got = smoothed_weight_table(weight, sigma, centers)
    assert np.all(np.isfinite(got))
    assert np.all(got >= 0.0)
    assert np.all(got[centers <= 400.0] > 0.0)
    with np.errstate(all="ignore"):
        want = oracles.exp_abs_smoothed(centers, sigma, shift)
    normal = np.isfinite(want) & (want >= np.finfo(float).tiny)
    assert np.count_nonzero(normal) > 1000
    assert np.all(np.abs(got - want)[normal] <= 1e-12 * want[normal])
    far = np.array([-600.0, -300.0, -3.0, 4.0, 300.0, 400.0])
    for c in np.concatenate([kink + sigma * np.array([-3.0, -0.5, 0.0, 0.5, 3.0]), far]):
        quadpack = oracles.smoothed_weight_quad(c, sigma, weight)
        assert abs(smoothed_weight_table(weight, sigma, [c])[0] - quadpack) <= 1e-12 * quadpack


# ---------------------------------------------------------------------------
# Coherent pair coefficients, read from the overlap table's coherent table
# ---------------------------------------------------------------------------


def _coherent_table(phi: str, sigma: float):
    spectrum = bohr_spectrum(np.diag(PAIR_SPECTRUM_ENERGIES))
    weight = balanced_gamma(phi, sigma)
    return spectrum, overlap_table(spectrum, weight, sigma, cross_check=False).coherent


def test_pair_coefficient_matches_quadpack():
    w = balanced_gamma("gaussian", 0.9)
    spectrum, coherent = _coherent_table("gaussian", 0.9)
    for (nu, nup), frozen in PAIR_COEFFICIENT_AT_0P9.items():
        live = oracles.pair_coefficient_quad(nu, nup, 0.9, w)
        assert abs(live - frozen) < 1e-10 * abs(frozen)
        i, j = oracles.frequency_index(spectrum, nu), oracles.frequency_index(spectrum, nup)
        got = coherent[i, j]
        assert abs(got - frozen) < 1e-10 * abs(frozen)


def test_pair_coefficient_hermitian_symmetry():
    _, coherent = _coherent_table("sech", 0.7)
    assert np.all(np.abs(coherent - coherent.conj().T) <= 1e-13 * np.abs(coherent))


def test_pair_coefficient_vanishes_on_diagonal():
    _, coherent = _coherent_table("gaussian", 1.0)
    assert np.all(np.diag(coherent) == 0.0)


def _identity_residuals(weight, sigma: float) -> np.ndarray:
    """``|lhs - rhs| / (1 + |lhs|)`` of the scalar stationarity identity at
    every pair of Bohr frequencies of the identity spectrum: ``lhs`` is the
    QUADPACK Gibbs-action coefficient, ``rhs = i (1 - e^{tau - tau'}) b``
    with ``b`` the production coherent pair table."""
    spectrum = bohr_spectrum(np.diag(IDENTITY_SPECTRUM_ENERGIES))
    taus = spectrum.frequencies
    lhs = oracles.gibbs_coefficient_table_quad(taus, sigma, weight)
    coherent = overlap_table(spectrum, weight, sigma, cross_check=False).coherent
    rhs = 1j * (1.0 - np.exp(taus[:, None] - taus[None, :])) * coherent
    assert np.all(np.abs(rhs.imag) <= 1e-13 * (1.0 + np.abs(rhs.real)))
    return np.abs(lhs - rhs.real) / (1.0 + np.abs(lhs))


def _assert_identity_balanced_vs_broken(phi: str, sigma: float) -> None:
    assert np.max(_identity_residuals(balanced_gamma(phi, sigma), sigma)) < 1e-9
    broken = _identity_residuals(unshifted_gamma(phi, sigma), sigma)
    assert np.max(broken[~np.eye(broken.shape[0], dtype=bool)]) > 1e-4


def test_stationarity_identity_residual_balanced_vs_broken():
    _assert_identity_balanced_vs_broken("gaussian", 1.0)


@pytest.mark.parametrize("sigma", [1.0, 0.5])
@pytest.mark.parametrize("phi", ["sech", "exp_abs"])
def test_stationarity_identity_for_other_profiles(phi, sigma):
    """Smooth heavy-tailed (sech) and kinked (exp_abs, which takes the
    panel branch of the smoothed-weight table) profiles balance too."""
    _assert_identity_balanced_vs_broken(phi, sigma)


# ---------------------------------------------------------------------------
# Time-domain kernels
# ---------------------------------------------------------------------------


def test_time_kernel_matches_fourier_oracle():
    t, sigma, frozen = TIME_KERNEL_AT
    assert oracles.time_kernel_quad(t, sigma) == pytest.approx(frozen, rel=1e-12)
    assert float(coherent_time_kernel(t, sigma)) == pytest.approx(frozen, rel=1e-12)


def test_time_kernel_is_odd_and_positive_for_positive_times():
    grid = np.array([0.1, 0.4, 1.0, 2.5])
    plus = np.asarray(coherent_time_kernel(grid, 0.8))
    minus = np.asarray(coherent_time_kernel(-grid, 0.8))
    assert np.all(plus > 0.0)
    assert np.allclose(plus, -minus, rtol=1e-13)


def test_envelope_matches_tilted_fourier_oracle():
    s, sigma, frozen = ENVELOPE_AT
    w = balanced_gamma("gaussian", sigma)
    live = oracles.tilted_envelope_quad(s, sigma, w)
    assert abs(live - frozen) < 1e-10 * abs(frozen)
    got = complex(np.asarray(coherent_time_envelope(s, sigma, w)).ravel()[0])
    assert abs(got - frozen) < 1e-10 * abs(frozen)


def test_time_kernel_is_exactly_odd():
    """``K(-t) = -K(t)`` bit for bit on a grid that is not its own mirror."""
    t = np.array([-2.5, 0.4, 19.0, -0.013, 0.0, 7.25, -1.0])
    vals = coherent_time_kernel(t, 0.9)
    assert np.array_equal(coherent_time_kernel(-t, 0.9), -vals)
    assert vals[4] == 0.0


@pytest.mark.parametrize("sigma", [0.3, 0.5, 0.9, 2.0, MAX_BANDWIDTH])
def test_time_kernel_window_matches_all_node_sum(sigma):
    """Each ``|t|`` summed over its live window on graded panels against
    the sum over every node of uniform narrow panels, per point, on the
    oracle's kernel grid and at t = 19 and 40, where the kernel lies far
    below 1e-40 at the larger bandwidths.  ``MAX_BANDWIDTH`` puts the
    steepest Gaussian under the widest panels."""
    ts, _ = gibbslab.generators._oracle_trapezoid(12.0 + 2.0 / sigma)
    for t in (ts, np.array([19.0, 40.0])):
        got = coherent_time_kernel(t, sigma)
        ref = oracles.time_kernel_all_nodes(t, sigma)
        assert np.array_equal(got == 0.0, ref == 0.0)
        live = ref != 0.0
        assert np.max(np.abs(got[live] - ref[live]) / np.abs(ref[live])) < 1e-14


@pytest.mark.parametrize("phi", ["gaussian", "exp_abs"])
def test_envelope_phase_split_matches_direct_sum(phi):
    """The panel-centre phase split against the direct sum over every node,
    on a non-uniform ``s`` with both signs and 0, and on a scalar."""
    w = balanced_gamma(phi, 0.9)
    s = np.array([-11.7, -4.0, -0.3, 0.0, 0.05, 0.3, 1.9, 6.6, 12.1])
    ref = oracles.time_envelope_direct(s, 0.9, w)
    got = coherent_time_envelope(s, 0.9, w)
    assert np.max(np.abs(got - ref)) < 1e-14 * np.max(np.abs(ref))
    scalar = coherent_time_envelope(0.3, 0.9, w)
    assert isinstance(scalar, complex)
    ref_scalar = oracles.time_envelope_direct(0.3, 0.9, w)[0]
    assert abs(scalar - ref_scalar) < 1e-14 * abs(ref_scalar)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_time_kernel_and_envelope_refuse_non_finite_times(bad):
    w = balanced_gamma("gaussian", 0.9)
    with pytest.raises(ValidationError, match="time must be finite"):
        coherent_time_kernel(np.array([0.5, bad]), 0.9)
    with pytest.raises(ValidationError, match="time must be finite"):
        coherent_time_envelope(bad, 0.9, w)


def test_time_kernel_and_envelope_refuse_no_times():
    with pytest.raises(ValidationError, match="no time given"):
        coherent_time_kernel([], 0.9)
    with pytest.raises(ValidationError, match="no time given"):
        coherent_time_envelope(np.array([]), 0.9, balanced_gamma("gaussian", 0.9))


def test_envelope_rejects_untiltable_weight():
    # e^{omega} gamma(omega) tends to a constant for the sech profile, so the
    # tilted transform does not exist and must be refused loudly
    w = balanced_gamma("sech", 0.9)
    with pytest.raises(ValidationError):
        coherent_time_envelope(0.3, 0.9, w)


def test_l1_table_and_limit():
    for sigma, frozen in L1_TABLE.items():
        live = oracles.time_kernel_l1_quad(sigma, TIME_KERNEL_ENVELOPE_SCALE)
        assert live == pytest.approx(frozen, rel=1e-10)
        assert coherent_time_kernel_l1(sigma) == pytest.approx(frozen, rel=1e-10)
    values = [L1_TABLE[s] for s in sorted(L1_TABLE, reverse=True)]
    assert all(b > a for a, b in zip(values[:-1], values[1:]))
    assert all(v < COHERENT_L1_LIMIT for v in values)
    assert COHERENT_L1_LIMIT == pytest.approx(math.sqrt(math.pi) / 32.0, rel=1e-15)


# ---------------------------------------------------------------------------
# Gaussian filter
# ---------------------------------------------------------------------------


def test_filter_squared_mass_is_pi():
    filt = GaussianFilter(0.7)
    grid = np.linspace(-60, 60, 400001)
    mass = np.trapezoid(filt.frequency_profile(grid) ** 2, grid)
    assert mass == pytest.approx(FILTER_SQUARED_MASS, rel=1e-12)
    assert FILTER_SQUARED_MASS == pytest.approx(math.pi, rel=1e-15)


def test_filter_rejects_bad_bandwidth():
    for bad in (0.0, -2.0, float("nan")):
        with pytest.raises(ValidationError):
            GaussianFilter(bad)


def test_custom_weight_function_is_usable():
    w = WeightFunction(
        kind="unshifted_control",
        evaluate=lambda om: np.exp(-np.abs(np.asarray(om))),
        sigma=1.0,
    )
    assert float(w(0.0)) == 1.0
    assert float(w(2.0)) == pytest.approx(math.exp(-2.0), rel=1e-14)
