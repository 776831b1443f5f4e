"""Frozen reference values for the regression sets.

Computed independently with mpmath at 50-digit working precision (tanh-sinh
quadrature with explicit error control, bracketed bisection for every root,
damped Newton for the centers), then cross-checked against closed forms where
those exist.  Printed literature values are truncated/rounded and therefore
only good to their displayed digits; these carry full double precision.
"""

import math

import numpy as np

TWO_INTERVAL = {
    "pairs": [[-1.0, -0.3], [0.1, 1.0]],
    "z1": -0.102095451178535484,
    "m": (0.467109181246905884, 0.532890818753094116),
    "alpha": 0.00209545117853548366,
    "green_at_z1": 0.203838164528579247,
    "capacity": 0.4897898949251606,
    "beta": 1.19846479993386514,
    "a": (-0.636555437304985048, 0.561909362628880095),
    "w1": -0.0767415258546404365,
}

THREE_INTERVAL = {
    "pairs": [[-2.0, -0.9], [-0.7, 0.2], [0.5, 2.2]],
    "coeffs": (-0.280862776335245931, 0.450612418664958192, 1.0),
    "z": (-0.801175694805547742, 0.350563276140589551),
    "m": (0.3600798973579461, 0.1772355400727119, 0.462684562569341999),
    "green_at_z": (0.053262478759355198, 0.0724265932333270617),
    "capacity": 1.04579552892534756,
    "alpha": 0.100612418664958192,
    "a": (-1.41012299062107886, -0.195023006417053677, 1.38957384851683029),
}

SYMMETRIC_PAIR = {
    "pairs": [[-2.0, -1.0], [1.0, 2.0]],
    "m": (0.5, 0.5),
    "a": (-1.5, 1.5),
    "capacity": math.sqrt(3.0) / 2.0,
    "green_at_z1": 0.549306144334054846,  # log sqrt(3)
}

CANTOR2 = {
    "capacity": 0.228430704425425268,
    "a": (0.0567587571100652098, 0.278581475832093376,
          0.721418524167906624, 0.94324124288993479),
    "steps": 2,
}

CANTOR3 = {
    "capacity": 0.224752818755435493,
    "a": (0.0192618341512977869, 0.0931976855176645796, 0.24083802611103849,
          0.314797535368453276, 0.685202464631546724, 0.75916197388896151,
          0.90680231448233542, 0.980738165848702213),
    "m": (0.172127872350408997, 0.11614447240914607, 0.0991084737285020486,
          0.112619181511942884, 0.112619181511942884, 0.0991084737285020486,
          0.11614447240914607, 0.172127872350408997),
    "steps": 3,
}

TOUCHING = {
    "pairs": [[-1.0, 1.0], [1.2, 1.4]],
    "z1": 1.10742328730619726,
    "m": (0.774443516355981787, 0.225556483644018213),
    "green_at_z1": 0.128395210343099492,
    "capacity": 0.595101568622742475,
    "alpha": 0.192576712693802738,
    "a": (-0.0677126190642331757, 1.08627474389197604),
}

ARCCOSH_2 = math.log(2.0 + math.sqrt(3.0))  # 1.3169578969248167...


def cantor_pairs(k: int) -> list[list[float]]:
    iv = [(0.0, 1.0)]
    for _ in range(k):
        iv = [t for (lo, hi) in iv
              for t in ((lo, lo + (hi - lo) / 3), (hi - (hi - lo) / 3, hi))]
    return [list(p) for p in iv]


def dirichlet_intervals(rng, ell, floor=0.25):
    """`ell` intervals filling [-1, 1]: the 2 ell - 1 component and gap
    lengths are a Dirichlet split of the hull, none below `floor` times the
    mean length."""
    n = 2 * ell - 1
    lengths = floor * 2.0 / n + (1.0 - floor) * 2.0 * rng.dirichlet(np.ones(n))
    b = -1.0 + np.concatenate(([0.0], np.cumsum(lengths)))
    b[-1] = 1.0
    return [[float(b[2 * j]), float(b[2 * j + 1])] for j in range(ell)]


def preimage_pairs(n: int, sigma: float, kappa: float) -> list[list[float]]:
    """The n intervals of the polynomial pre-image E = {x : |T_n(x) - sigma|
    <= kappa}, |sigma| + kappa < 1: its endpoints are cos((2 pi j +-
    arccos(sigma +- kappa)) / n) in [-1, 1].  Exact data: every mass is 1/n
    and the capacity kappa^(1/n) / 2 (preimage_green gives g_E).  See Sete &
    Liesen, "Properties and examples of Faber-Walsh polynomials", CMFT 17
    (2017)."""
    angles = []
    for v in (sigma - kappa, sigma + kappa):
        theta = math.acos(v)
        angles += [(2.0 * math.pi * j + sign * theta) / n
                   for j in range(n + 1) for sign in (1.0, -1.0)]
    b = sorted(math.cos(a) for a in angles if 0.0 <= a <= math.pi)
    assert len(b) == 2 * n
    return [[b[2 * j], b[2 * j + 1]] for j in range(n)]


def preimage_green(z, n: int, sigma: float, kappa: float) -> float:
    """g_E(z) = (1/n) log|P + sqrt(P^2 - 1)| of the pre-image set of
    preimage_pairs, P = (T_n(z) - sigma) / kappa, on the branch of modulus
    >= 1: log|P| plus the log of the larger of |1 +- sqrt(1 - 1/P^2)|, which
    has no cancellation, and no overflow where P^2 does."""
    P = (np.polynomial.chebyshev.chebval(complex(z), [0.0] * n + [1.0]) - sigma) / kappa
    inv = 1.0 / P
    root = np.sqrt(1.0 - inv * inv)
    return (math.log(abs(P)) + math.log(max(abs(1.0 + root), abs(1.0 - root)))) / n


# Gauss-Legendre rules on [-1, 1]: (k, x_k, w_k) for the k-th largest node
# of n, at k = 1, 2 (the outermost), n/4 and n/2 (the node nearest the
# middle), and for n = 2048 also at k = 3 and 10, whose start takes the zero
# of J_0 from quadrature's table, and 40 and 100, whose start takes it from
# McMahon's expansion; rounded from these 40-digit values:
#
#   import mpmath as mp
#   mp.mp.dps = 40
#
#   def legendre_pair(n, x):  # P_n(x), P_{n-1}(x)
#       p_prev, p = mp.mpf(1), x
#       for k in range(1, n):
#           p_prev, p = p, ((2 * k + 1) * x * p - k * p_prev) / (k + 1)
#       return p, p_prev
#
#   def node_weight(n, k):
#       x = mp.cos(mp.pi * (4 * k - 1) / (4 * n + 2))
#       for _ in range(10):
#           p, p_prev = legendre_pair(n, x)
#           x -= p * (1 - x * x) / (n * (p_prev - x * p))
#       p, p_prev = legendre_pair(n, x)
#       d = n * (p_prev - x * p) / (1 - x * x)
#       return x, 2 / ((1 - x * x) * d * d)
#
# A second run, Newton from numpy's leggauss nodes, agreed in every digit.
GAUSS_LEGENDRE = {
    16: [
        (1, 0.9894009349916499326, 0.027152459411754094852),
        (2, 0.94457502307323257608, 0.062253523938647892863),
        (4, 0.7554044083550030339, 0.12462897125553387205),
        (8, 0.095012509837637440185, 0.18945061045506849629),
    ],
    64: [
        (1, 0.99930504173577213946, 0.0017832807216964329473),
        (2, 0.99634011677195527935, 0.0041470332605624676353),
        (16, 0.71988185017161082685, 0.033805161837141609392),
        (32, 0.024350292663424432509, 0.048690957009139720383),
    ],
    128: [
        (1, 0.99982488794713191447, 0.00044938096029209037639),
        (2, 0.99907745997737589501, 0.0010458126793403487793),
        (32, 0.71355437768358741334, 0.017128135423111376831),
        (64, 0.012223698960615764198, 0.024446180196262518211),
    ],
    256: [
        (1, 0.99995605001899223073, 0.00011278901782227217551),
        (2, 0.9997684374092631861, 0.00026253494429644590629),
        (64, 0.71034568330454331339, 0.0086207050884010143054),
        (128, 0.0061239123751895295012, 0.012247671640289755904),
    ],
    512: [
        (1, 0.99998899098438186799, 0.000028252637373934692039),
        (2, 0.99994199460684565364, 0.000065765731659240195831),
        (128, 0.70873001921840708485, 0.0043245425631609613132),
        (256, 0.0030649621851593961529, 0.0061299051754057857592),
    ],
    1024: [
        (1, 0.99999724505455844035, 7.0700764101825898713e-6),
        (2, 0.99998548438502844477, 0.000016457727579896868107),
        (256, 0.70791934831880136166, 0.0021658225940099498722),
        (512, 0.0015332313560626384065, 0.0030664603092439082116),
    ],
    2048: [
        (1, 0.99999931092710532958, 1.7683833666660711807e-6),
        (2, 0.9999963693177449578, 4.1164558305822254428e-6),
        (3, 0.99999107714397238839, 6.4679954757367666237e-6),
        (10, 0.99988818126448765632, 0.000022930646511857652651),
        (40, 0.99814243281054670673, 0.000093432056147416964636),
        (100, 0.98832175442398883578, 0.00023369288019967730084),
        (512, 0.70751330195323157477, 0.0010837995993926657207),
        (1024, 0.00076680308814728576831, 0.0015336058757143302803),
    ],
}


# zeros j_{0,k} of the Bessel function J_0, by k, to 30 digits:
# mpmath.besseljzero(0, k) at mp.dps = 30
BESSEL_J0_ZEROS = {
    1: 2.40482555769577276862163187933,
    2: 5.52007811028631064959660411281,
    20: 62.0484691902271698828525002647,
    21: 65.1899648002068604406360337425,
    100: 313.374266077527844719690245102,
    1024: 3216.20551797822436998854989778,
}
