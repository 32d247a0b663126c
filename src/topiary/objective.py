"""The objective, margin, rate, score, beta and alpha of a measure.

`MarginTable.of` is the one evaluation of a measure mu with ids and weights
w, shared by `margin_table` and the solver's finish. One product
G[:, ids] @ w gives mu(x) over the ground set; with lin = integral(psi d mu)
and ||mu||^2 = w' G[ids, ids] w, `MarginTable.tabulate`
yields the objective O(mu) = lin - ||mu||^2 / 2 (maximized over probability
measures), the rate r = lin - ||mu||^2, the margin iota(x) = psi(x) - mu(x) - r
(the directional derivative of O toward delta_x), the score max iota (the
Frank-Wolfe duality gap) with its argmax, and the CAPM beta and alpha. A
converged solution has margin zero on its support and nonpositive everywhere
else. The per-point functions, the diagnostics and the solver state all read
tables built by `tabulate`, so the CAPM alpha and the optimality certificate
come from one mu vector.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, ZeroPortfolio, real, reals

DEFAULT_MARGIN_TOL = 1e-8

# squared lengths, norms and step sizes at or below this count as zero
ZERO_TOL = 1e-14


class PsiSpec:
    """Target values over the ground set.

    Derived forms (zero, embedded measure, point kernel) are materialized
    into a table once; candidates are finite so nothing is lost. The norm
    field is only known when psi itself is an embedded element, which is
    what makes the lower slope bound in the Julia-Carathéodory report
    checkable.
    """

    def __init__(self, values, form="table", norm=None):
        self.values = reals(values, "psi")
        self.form = form
        self.norm = None if norm is None else real(norm, "psi norm")

    @staticmethod
    def table(values):
        return PsiSpec(values, "table")

    @staticmethod
    def zero(kern):
        return PsiSpec(np.zeros(kern.n), "zero", norm=0.0)

    @staticmethod
    def embedded(reference, kern):
        """psi(x) = nu(x) for a measure nu; ||psi|| = ||nu|| is known."""
        table = margin_table(reference, None, kern)
        return PsiSpec(table.mu, "embedded", norm=np.sqrt(table.norm_sq))

    @staticmethod
    def point_kernel(alpha, kern):
        """psi(x) = k(alpha, x); the ||mu - delta_alpha|| objective."""
        vals = kern.row(alpha)
        return PsiSpec(vals, "point-kernel", norm=np.sqrt(max(0.0, kern.eval(alpha, alpha))))

    def __len__(self):
        return len(self.values)


def as_psi(psi, kern):
    if isinstance(psi, PsiSpec):
        spec = psi
    elif psi is None:
        spec = PsiSpec.zero(kern)
    else:
        spec = PsiSpec.table(psi)
    if len(spec) != kern.n:
        raise InvalidInput(
            "psi has %d values for %d ground points" % (len(spec), kern.n)
        )
    return spec


@dataclass(frozen=True)
class MarginTable:
    margins: np.ndarray
    rate: float
    score: float
    objective: float
    norm_sq: float
    argmax: int
    mu: np.ndarray  # embedded values mu(x) over the ground set
    lin: float  # integral(psi d mu)

    @classmethod
    def tabulate(cls, psi_values, mu, lin, nsq, cand, G):
        """The table of a measure from its Gram product (mu over the ground
        set, lin, nsq = ||mu||^2); score and argmax range over the ids cand,
        ties broken as `score` documents."""
        rate = lin - nsq
        iota = psi_values - mu - rate
        vals = iota[cand]
        best = float(vals.max())
        tied = cand[vals == best]
        if tied.size > 1 and best > 0.0:
            d2 = G[tied, tied] - 2.0 * mu[tied] + nsq
            gains = np.where(d2 > ZERO_TOL, best * best / (2.0 * np.maximum(d2, ZERO_TOL)), np.inf)
            tied = tied[gains == gains.max()]
        return cls(
            margins=iota,
            rate=rate,
            score=best,
            objective=lin - nsq / 2.0,
            norm_sq=nsq,
            argmax=int(tied[0]),
            mu=mu,
            lin=lin,
        )

    @classmethod
    def of(cls, measure, psi_values, cand, G):
        """The table of measure from one Gram product; cand: sorted id array."""
        ids, w = measure.ids_within(G.shape[0]), measure.weights
        mu = w @ G[ids]  # rows: G is exactly symmetric
        lin = float(np.dot(w, psi_values[ids]))
        nsq = max(0.0, float(w @ G[np.ix_(ids, ids)] @ w))
        return cls.tabulate(psi_values, mu, lin, nsq, cand, G)

    def certifies(self, support, tol):
        """Score at most tol and every margin on the ids support at least
        -tol; the score bound alone would let a light atom hide a large
        negative margin, since the weighted support margins sum to zero."""
        return self.score <= tol and float(np.min(self.margins[support], initial=np.inf)) >= -tol

    def betas(self):
        """mu(x) / ||mu||^2, the regression coefficient of each point on mu."""
        if self.norm_sq <= ZERO_TOL:
            raise ZeroPortfolio("portfolio embeds to zero; beta undefined")
        return self.mu / self.norm_sq

    def alphas(self, psi_values):
        """psi(x) - r - beta(x) (lin - r) for the psi table the margins came
        from. Algebraically the margin, because the excess lin - r equals
        ||mu||^2; both formulas are kept and tests assert the identity."""
        return psi_values - self.rate - self.betas() * (self.lin - self.rate)


def margin_table(measure, psi, kern, candidates=None):
    """Evaluate measure once; score and argmax range over candidates
    (default: the whole ground set)."""
    psi = as_psi(psi, kern)
    if candidates is None:
        cand = np.arange(kern.n)
    else:
        cand = np.asarray(sorted(kern._id(c) for c in candidates), dtype=int)
        if cand.size == 0:
            raise InvalidInput("score needs a non-empty candidate set")
    return MarginTable.of(measure, psi.values, cand, kern.gram)


def aesthetic_objective(measure, psi, kern):
    return margin_table(measure, psi, kern).objective


def topiaric_rate(measure, psi, kern):
    """r = integral(psi - mu) d mu = integral(psi d mu) - ||mu||^2."""
    return margin_table(measure, psi, kern).rate


def margin(measure, psi, kern, x):
    return float(margin_table(measure, psi, kern).margins[kern._id(x)])


def margins(measure, psi, kern):
    """Margin vector over the whole ground set."""
    return margin_table(measure, psi, kern).margins


def score(measure, psi, kern, candidates=None):
    """(sup margin, argmax id). Ties at a positive max margin go to the
    larger step gain iota^2 / (2 ||k_x - mu||^2), a zero-length direction
    first; ties left after that, or at a max margin <= 0, to the lowest id."""
    table = margin_table(measure, psi, kern, candidates)
    return table.score, table.argmax


def step_gain(measure, psi, kern, x):
    """Objective gain of an exact line search toward delta_x."""
    table = margin_table(measure, psi, kern)
    x = kern._id(x)
    iota = float(table.margins[x])
    d2 = float(kern.gram[x, x]) - 2.0 * float(table.mu[x]) + table.norm_sq
    if iota <= 0.0:
        return 0.0
    # t = 1 when d2 <= iota, a zero-length direction among them, as the
    # solver's step; closed form iota^2/(2 d2) only valid for interior t
    t = 1.0 if d2 <= iota else iota / d2
    return iota * t - d2 * t * t / 2.0


def beta(measure, kern, x):
    """mu(x) / ||mu||^2, the regression coefficient of x on the portfolio."""
    return float(margin_table(measure, None, kern).betas()[kern._id(x)])


def alpha(measure, psi, kern, x):
    """psi(x) - r - beta(x) (integral(psi d mu) - r); see MarginTable.alphas."""
    psi = as_psi(psi, kern)
    return float(margin_table(measure, psi, kern).alphas(psi.values)[kern._id(x)])
