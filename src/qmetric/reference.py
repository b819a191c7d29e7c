"""Tabulated closed-form results used as cross-checks.

Operators, kernels, and coefficient tables for the imaginary-cubic
metric problem, as originally tabulated during the derivation this
package mechanizes.  The verifier recomputes everything from first
principles and compares against this dataset; disagreements are
reported as findings rather than silently corrected, and the entries
the recomputation supersedes are collected in EXPECTED_FINDINGS.

Coefficient tables are keyed by (mu, nu): mu counts powers of the
first-order plain parameter, nu powers of the first-order parity
parameter.
"""

from __future__ import annotations

from fractions import Fraction as F

from .algebra import OperatorExpr, from_symmetric_form
from .kernels import Kernel, XYPoly, sign_kernel, delta_kernel
from .params import ParamPoly
from .rational import GaussianRational as G

I = G(0, 1)


# -- series coefficients of log(eta) order by order -------------------------

Q_COEFFICIENTS = {1: F(-1), 2: F(0), 3: F(1, 12), 4: F(0), 5: F(-1, 120)}


# -- first order -------------------------------------------------------------

def q1_particular() -> OperatorExpr:
    """(1/2)(x^4 p^-1 + 2i x^3 p^-2 - 3 x^2 p^-3 - 3i x p^-4)."""
    out = OperatorExpr.zero()
    for c, a, b in ((G(F(1, 2)), 4, -1), (G(0, 1), 3, -2),
                    (G(F(-3, 2)), 2, -3), (G(0, F(-3, 2)), 1, -4)):
        out = out + OperatorExpr.monomial(c, a, b, False)
    return out


def q1_general(l1: ParamPoly, k1: ParamPoly) -> OperatorExpr:
    out = q1_particular()
    out = out + OperatorExpr.monomial(l1, 0, -5, False)
    out = out + OperatorExpr.monomial(ParamPoly(G(0, 1)) * k1, 0, -5, True)
    return out


def q1_symmetric_items(l1: ParamPoly, k1: ParamPoly):
    """(1/4){x^4,p^-1} + (3/4){x^2,p^-3} + (l1+3) p^-5 + i k1 p^-5 P."""
    return [
        (4, -1, False, ParamPoly(F(1, 4))),
        (2, -3, False, ParamPoly(F(3, 4))),
        (0, -5, False, l1 + ParamPoly(3)),
        (0, -5, True, ParamPoly(G(0, 1)) * k1),
    ]


def q1_kernel() -> Kernel:
    """(i/8) x y (x^2 + y^2) sign(x-y)."""
    poly = XYPoly.monomial(G(0, F(1, 8)), 3, 1) + XYPoly.monomial(G(0, F(1, 8)), 1, 3)
    return sign_kernel(poly, plus=False)


def q1_wave_rhs() -> Kernel:
    """-4i x^3 delta(x-y)."""
    return delta_kernel(XYPoly.monomial(G(0, -4), 3, 0), k=0, plus=False)


# the two operator-ordering identities used to bring the quartic terms to
# anticommutator form; the first one is tabulated with an incorrect momentum
# exponent on the middle term (see EXPECTED_FINDINGS)

def identity_lhs_a() -> OperatorExpr:
    x3px = OperatorExpr.x_power(3) * OperatorExpr.p_power(-1) * OperatorExpr.x_power(1)
    xpx3 = OperatorExpr.x_power(1) * OperatorExpr.p_power(-1) * OperatorExpr.x_power(3)
    return x3px + xpx3


def identity_rhs_a_tabulated():
    return [(4, -1, False, ParamPoly(1)),
            (2, -2, False, ParamPoly(3)),
            (0, -5, False, ParamPoly(12))]


def identity_rhs_a_recomputed():
    return [(4, -1, False, ParamPoly(1)),
            (2, -3, False, ParamPoly(3)),
            (0, -5, False, ParamPoly(12))]


def identity_lhs_b() -> OperatorExpr:
    return OperatorExpr.x_power(2) * OperatorExpr.p_power(-1) * OperatorExpr.x_power(2)


def identity_rhs_b():
    return [(4, -1, False, ParamPoly(F(1, 2))),
            (2, -3, False, ParamPoly(2)),
            (0, -5, False, ParamPoly(12))]


# -- the one-parameter quintic-free family (Bender-Brody-Jones ansatz) -------

def bbj_alpha_shift() -> F:
    """Plain p^-5 constant relating the ansatz parameter to the symmetric form."""
    return F(15, 4)


# -- second order ------------------------------------------------------------

def q2_general(l2: ParamPoly, k2: ParamPoly) -> OperatorExpr:
    out = OperatorExpr.monomial(l2, 0, -10, False)
    out = out + OperatorExpr.monomial(-k2, 0, -10, True)
    return out


# -- third order: coefficient tables ------------------------------------------

# normal-ordered x^l p^(l-15) coefficients (l = 1, 2, ...)
TABLE_A = {
    (0, 0): [F(2745171, 32), F(2745171, 32), F(677457, 16), F(439857, 32),
             F(52029, 16), F(9375, 16), F(651, 8), F(273, 32), F(5, 8), F(1, 40)],
    (0, 1): [F(70317, 5), F(23592, 5), F(20207, 20), F(794, 5),
             F(777, 40), F(217, 120), F(7, 60), F(1, 240)],
    (1, 0): [F(1110915, 8), F(363315, 8), F(36355, 4), F(9305, 8), F(90), F(10, 3)],
    (1, 1): [F(351, 2), F(71, 2), F(11, 3), F(1, 6)],
    (0, 2): [F(388), F(48), F(11, 3), F(1, 6)],
    (2, 0): [F(325, 2), F(25, 2)],
}

# kernel body coefficients (l = 1, 2, ...)
TABLE_B = {
    (0, 0): [F(79, 11468800), F(79, 2867200), F(533, 8601600),
             F(947, 8601600), F(53, 983040)],
    (0, 1): [F(601, 532224000), F(4757, 1596672000),
             F(5443, 798336000), F(937, 266112000)],
    (1, 0): [F(211, 18923520), F(-533, 63866880), F(9127, 510935040)],
    (1, 1): [F(1, 70963200), F(1, 383201280)],
    (0, 2): [F(-13, 479001600), F(15, 958003200)],
    (2, 0): [F(-1, 76640256)],
}

# anticommutator-form coefficients (l = 0, 1, ..., 5; None where absent)
TABLE_C = {
    (0, 0): [F(141274966833, 32), F(3830434839, 64), F(23858793, 64),
             F(43479, 32), F(267, 64), F(1, 80)],
    (0, 1): [F(24081603, 20), F(328947, 40), F(16327, 80), F(35, 48),
             F(1, 480), None],
    (1, 0): [F(54563145, 16), F(1430535, 16), F(8695, 16), F(5, 3), F(0), F(0)],
    (1, 1): [F(1547, 4), F(61, 4), F(1, 12), F(0), F(0), None],
    (0, 2): [F(-357), F(9), F(1, 12), F(0), F(0), F(0)],
    (2, 0): [F(-2275, 4), F(-25, 4), F(0), F(0), F(0), F(0)],
}

SECTORS = ((0, 0), (0, 1), (1, 0), (1, 1), (0, 2), (2, 0))

# recomputed variants of the cells the verifier supersedes (everything else
# agrees with the tables above)
TRUE_A = dict(TABLE_A)
TRUE_A[(0, 1)] = [10 * v for v in TABLE_A[(0, 1)]]
TRUE_A[(0, 2)] = [F(338)] + TABLE_A[(0, 2)][1:]

TRUE_C = dict(TABLE_C)
TRUE_C[(0, 0)] = [F(141274966833, 64)] + TABLE_C[(0, 0)][1:]
TRUE_C[(0, 1)] = [F(24081603, 2), F(328947), F(16327, 8), F(175, 24), F(1, 48), None]
TRUE_C[(0, 2)] = [F(-182)] + TABLE_C[(0, 2)][1:]

_MI = (G(1), G(0, -1), G(-1), G(0, 1))  # (-i)^l


def t_normal(mu: int, nu: int, table=None) -> OperatorExpr:
    """Tabulated normal-ordered form of the (mu, nu) third-order sector."""
    out = OperatorExpr.zero()
    for l, av in enumerate((table or TABLE_A)[(mu, nu)], start=1):
        if nu == 1:
            coeff = _MI[(l + 1) % 4] * G(av)
        else:
            sign = G(-1) if (mu, nu) in ((0, 0), (1, 0)) else G(1)
            coeff = sign * _MI[l % 4] * G(av)
        out = out + OperatorExpr.monomial(coeff, l, l - 15, nu == 1)
    return out


def t_symmetric_items(mu: int, nu: int, table=None):
    """Tabulated anticommutator form; the l=0 cell multiplies {1, p^-15} = 2 p^-15."""
    items = []
    par = nu == 1
    pref = G(0, -1) if par else G(1)
    for l, cv in enumerate((table or TABLE_C)[(mu, nu)]):
        if cv is None:
            continue
        coeff = pref * G(cv)
        if l == 0:
            coeff = coeff * G(2)
        if coeff.is_zero():
            continue
        items.append((2 * l, 2 * l - 15, par, ParamPoly(coeff)))
    return items


def t_symmetric(mu: int, nu: int, table=None) -> OperatorExpr:
    return from_symmetric_form(t_symmetric_items(mu, nu, table))


def _asym(i, j, c) -> XYPoly:
    return XYPoly.monomial(G(c), i, j) + XYPoly.monomial(G(-c), j, i)


def _symm(i, j, c) -> XYPoly:
    # literal two-term sum; doubles when i == j
    return XYPoly.monomial(G(c), i, j) + XYPoly.monomial(G(c), j, i)


def s_kernel(mu: int, nu: int) -> Kernel:
    """Tabulated kernel of the (mu, nu) sector of the third-order source."""
    if (mu, nu) == (0, 0):
        poly = (_asym(11, 1, 15) + _asym(9, 3, 7) + _asym(8, 4, -48)).scale(G(0, F(-1, 26880)))
        return sign_kernel(poly, plus=False)
    if (mu, nu) == (0, 1):
        body = _asym(7, 0, 3115) + _asym(6, 1, -3818) + _asym(5, 2, 3120) + _asym(4, 3, -12123)
        poly = (XYPoly.x_plus_y_power(5) * body).scale(G(F(1, 319334400)))
        return sign_kernel(poly, plus=True)
    if (mu, nu) == (1, 0):
        body = _symm(5, 0, 623) + _symm(4, 1, 1970) + _symm(3, 2, 3743)
        poly = (XYPoly.x_minus_y_power(7) * body).scale(G(0, F(-1, 6386688)))
        return sign_kernel(poly, plus=False)
    if (mu, nu) == (1, 1):
        body = _asym(3, 0, 7) + _asym(2, 1, -15)
        poly = (XYPoly.x_plus_y_power(9) * body).scale(G(F(1, 47900160)))
        return sign_kernel(poly, plus=True)
    if (mu, nu) == (0, 2):
        body = _symm(3, 0, 29) + _symm(2, 1, 15)
        poly = (XYPoly.x_minus_y_power(9) * body).scale(G(0, F(1, 95800320)))
        return sign_kernel(poly, plus=False)
    if (mu, nu) == (2, 0):
        poly = (XYPoly.x_minus_y_power(11) * XYPoly.x_plus_y_power(1)).scale(G(0, F(1, 6386688)))
        return sign_kernel(poly, plus=False)
    raise KeyError((mu, nu))


def t_kernel(mu: int, nu: int) -> Kernel:
    """Tabulated kernel of the (mu, nu) sector of the third-order particular solution."""
    shapes = {
        (0, 0): (4, 10, False, True),
        (0, 1): (6, 8, True, False),
        (1, 0): (8, 6, False, True),
        (1, 1): (10, 4, True, False),
        (0, 2): (10, 4, False, True),
    }
    if (mu, nu) == (2, 0):
        poly = (XYPoly.x_minus_y_power(12) * XYPoly.monomial(G(1), 1, 1)).scale(
            G(0, TABLE_B[(2, 0)][0]))
        return sign_kernel(poly, plus=False)
    outer_pow, inner_deg, plus, ipref = shapes[(mu, nu)]
    body = XYPoly.zero()
    for l, bv in enumerate(TABLE_B[(mu, nu)], start=1):
        body = body + _symm(l, inner_deg - l, bv)
    outer = XYPoly.x_plus_y_power(outer_pow) if plus else XYPoly.x_minus_y_power(outer_pow)
    return sign_kernel((outer * body).scale(G(0, 1) if ipref else G(1)), plus=plus)


def q3_final(l1: ParamPoly, k1: ParamPoly, l3: ParamPoly, k3: ParamPoly,
             structural_d02: bool = True, table=None) -> OperatorExpr:
    """Third-order operator assembled from TABLE_C combination coefficients.

    structural_d02 selects the d_02 combination forced by the sector
    expansion (quadratic in the parity parameter); the tabulated variant
    instead mixes in a parity-family cell linearly (kept retrievable for
    the verifier's finding report).
    """
    c = {k: [ParamPoly(v) if v is not None else None for v in row]
         for k, row in (table or TABLE_C).items()}
    l1sq, k1sq = l1 * l1, k1 * k1
    d0 = {
        1: c[(0, 0)][1] + l1 * c[(1, 0)][1] + l1sq * c[(2, 0)][1] + k1sq * c[(0, 2)][1],
        3: c[(0, 0)][3] + l1 * c[(1, 0)][3],
        4: c[(0, 0)][4],
        5: c[(0, 0)][5],
    }
    if structural_d02:
        d0[2] = c[(0, 0)][2] + l1 * c[(1, 0)][2] + k1sq * c[(0, 2)][2]
    else:
        d0[2] = c[(0, 0)][2] + l1 * c[(1, 0)][2] + k1 * c[(0, 1)][2]
    d1 = {
        1: k1 * (c[(0, 1)][1] + l1 * c[(1, 1)][1]),
        2: k1 * (c[(0, 1)][2] + l1 * c[(1, 1)][2]),
        3: k1 * c[(0, 1)][3],
        4: k1 * c[(0, 1)][4],
    }
    lam3t = l3 + ParamPoly(2) * (c[(0, 0)][0] + l1 * c[(1, 0)][0]
                                 + l1sq * c[(2, 0)][0] + k1sq * c[(0, 2)][0])
    kap3t = k3 + ParamPoly(2) * k1 * (c[(0, 1)][0] + l1 * c[(1, 1)][0])
    items = [(2 * l, 2 * l - 15, False, d0[l]) for l in range(1, 6)]
    items.append((0, -15, False, lam3t))
    mi = ParamPoly(G(0, -1))
    items.extend((2 * l, 2 * l - 15, True, mi * d1[l]) for l in range(1, 5))
    items.append((0, -15, True, mi * kap3t))
    return from_symmetric_form(items)


# -- observables -------------------------------------------------------------

def _lt(l1: ParamPoly) -> ParamPoly:
    return l1 + ParamPoly(3)


def comm_x_q1_items(l1, k1):
    """[x, Q_1] = -(i/4)({x^4,p^-2} + 9{x^2,p^-4} + 20*lt/p^6 - 4 k1 {x,p^-5} P)."""
    mi4 = ParamPoly(G(0, F(-1, 4)))
    return [
        (4, -2, False, mi4),
        (2, -4, False, mi4 * ParamPoly(9)),
        (0, -6, False, mi4 * ParamPoly(20) * _lt(l1)),
        (1, -5, True, mi4 * ParamPoly(-4) * k1),
    ]


def comm_p_q1_items(l1, k1):
    """[p, Q_1] = -(i/2)(2{x^3,p^-1} + 3{x,p^-3} - 4 k1 p^-4 P)."""
    mi2 = ParamPoly(G(0, F(-1, 2)))
    return [
        (3, -1, False, mi2 * ParamPoly(2)),
        (1, -3, False, mi2 * ParamPoly(3)),
        (0, -4, True, mi2 * ParamPoly(-4) * k1),
    ]


def comm_x3_q1_items(l1, k1):
    """[x^3, Q_1] per the tabulated anticommutator expansion."""
    m3i4 = ParamPoly(G(0, F(-3, 4)))
    lt = _lt(l1)
    return [
        (6, -2, False, m3i4),
        (4, -4, False, m3i4 * ParamPoly(22)),
        (2, -6, False, m3i4 * (ParamPoly(510) + ParamPoly(10) * lt)),
        (0, -8, False, m3i4 * (ParamPoly(8820) + ParamPoly(140) * lt)),
        (3, -5, True, m3i4 * ParamPoly(F(-4, 3)) * k1),
    ]


def comm_x3_q2_items(l2, k2):
    """[x^3, Q_2] = -15i l2 ({x^2,p^-11} + 44/p^13) - k2 {x^3,p^-10} P."""
    m15i = ParamPoly(G(0, -15))
    return [
        (2, -11, False, m15i * l2),
        (0, -13, False, m15i * ParamPoly(44) * l2),
        (3, -10, True, ParamPoly(-1) * k2),
    ]


def x_order1_items(l1, k1):
    """Order-1 term of the position observable."""
    i8 = ParamPoly(G(0, F(1, 8)))
    return [
        (4, -2, False, i8),
        (2, -4, False, i8 * ParamPoly(9)),
        (0, -6, False, i8 * ParamPoly(20) * _lt(l1)),
        (1, -5, True, i8 * ParamPoly(-4) * k1),
    ]


def p_order1_items(l1, k1):
    """Order-1 term of the momentum observable."""
    i4 = ParamPoly(G(0, F(1, 4)))
    return [
        (3, -1, False, i4 * ParamPoly(2)),
        (1, -3, False, i4 * ParamPoly(3)),
        (0, -4, True, i4 * ParamPoly(-4) * k1),
    ]


def h_order2_items(l1, k1):
    """Order-2 term of the equivalent Hermitian Hamiltonian."""
    c = ParamPoly(F(3, 16))
    lt = _lt(l1)
    return [
        (6, -2, False, c),
        (4, -4, False, c * ParamPoly(22)),
        (2, -6, False, c * (ParamPoly(510) + ParamPoly(10) * lt)),
        (0, -8, False, c * (ParamPoly(8820) + ParamPoly(140) * lt)),
        (3, -5, True, c * ParamPoly(F(-4, 3)) * k1),
    ]


def h_order3_items(l2, k2):
    """Order-3 term of the equivalent Hermitian Hamiltonian."""
    q = ParamPoly(F(1, 4))
    return [
        (2, -11, False, q * ParamPoly(15) * l2),
        (0, -13, False, q * ParamPoly(15 * 44) * l2),
        (3, -10, True, q * ParamPoly(G(0, -1)) * k2),
    ]


# -- classical limit ----------------------------------------------------------

# (epsilon order, x power, p power, coefficient, mass power)
CLASSICAL_TERMS = [
    (0, 0, 2, F(1, 2), -1),
    (2, 6, -2, F(3, 8), 1),
]


def true_s_kernel(mu: int, nu: int) -> Kernel:
    """Recomputed kernel: identical to s_kernel except the (0,1) sector scale."""
    k = s_kernel(mu, nu)
    return k.scale(G(10)) if (mu, nu) == (0, 1) else k


def true_t_kernel(mu: int, nu: int) -> Kernel:
    k = t_kernel(mu, nu)
    return k.scale(G(10)) if (mu, nu) == (0, 1) else k


# -- entries the recomputation supersedes -------------------------------------

# check key -> {cell label: (tabulated value, recomputed value)}
EXPECTED_FINDINGS = {
    "identity.sym.a": {
        "middle-term momentum exponent": ("p^-2", "p^-3"),
    },
    "kernel.s.01": {
        "overall scale": (F(1), F(10)),
    },
    "kernel.t.01": {
        "overall scale": (F(1), F(10)),
    },
    "table.a.01": {
        f"l={l}": (TABLE_A[(0, 1)][l - 1], 10 * TABLE_A[(0, 1)][l - 1])
        for l in range(1, 9)
    },
    "table.a.02": {
        "l=1": (F(388), F(338)),
    },
    "table.c.00": {
        "l=0": (F(141274966833, 32), F(141274966833, 64)),
    },
    "table.c.01": {
        "l=0": (F(24081603, 20), F(24081603, 2)),
        "l=1": (F(328947, 40), F(328947)),
        "l=2": (F(16327, 80), F(16327, 8)),
        "l=3": (F(35, 48), F(175, 24)),
        "l=4": (F(1, 480), F(1, 48)),
    },
    "table.c.02": {
        "l=0": (F(-357), F(-182)),
    },
    "q3.d.02.printed": {
        "last summand": ("k1 * c[(0,1)][2]", "k1^2 * c[(0,2)][2]"),
    },
    # knock-on effects of the table.c cells above on the assembled
    # third-order combination coefficients
    "q3.d.coeffs": {
        f"parity l={l}": (TABLE_C[(0, 1)][l], TRUE_C[(0, 1)][l])
        for l in range(1, 5)
    },
    "q3.lambda3": {
        "constant": (2 * TABLE_C[(0, 0)][0], 2 * TRUE_C[(0, 0)][0]),
        "k1^2": (2 * TABLE_C[(0, 2)][0], 2 * TRUE_C[(0, 2)][0]),
    },
    "q3.kappa3": {
        "k1": (2 * TABLE_C[(0, 1)][0], 2 * TRUE_C[(0, 1)][0]),
    },
}
