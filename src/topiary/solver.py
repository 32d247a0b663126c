"""Constructions of the optimal measure.

Three iterative solvers plus ground-truth utilities:

* greedy: fully-corrective Frank-Wolfe. Each step is a conditional-gradient
  step with exact line search, then Wolfe's support-side step: the
  exchange's move toward the hedge of the support, which drops each atom
  that empties on the way and never lowers the objective, so it is always
  kept. A direction as flat as a zero-length one is stepped to its end.
  Plain conditional gradient (`greedy_step`, with no polish) is monotone
  but drags: atoms it should not have touched decay only harmonically.
* second-greedy: the same, with a prune pass between the line-search step
  and the polish that deletes atoms whose removal-plus-rescale raises the
  objective beyond round-off. On 1000 Gaussian points in R^8 both certify
  in 21 iterations on 9 atoms.
* exchange: Wolfe's minimum-norm-point method. A major cycle brings in the
  point of maximal margin and heads for the hedge of the support plus it;
  a minor cycle drops the first atom that empties on the way and heads for
  the hedge of the rest, each one solve through the support factor. An
  atom on the affine hull of the others, the entering one included, is
  named by the factor's pivot rule and its ray walked instead. Exact in a
  handful of steps, and sound on ill-conditioned Grams.

Also: hedge (the signed mass-one measure with margin identically zero on a
set), grow/prune sets, topiaric-index predicates, removal orderings, and a
subset-enumeration oracle used as independent ground truth in tests.

The linear algebra is numpy's alone. The support factor's triangular
solves are blocked substitutions: matrix products, plus one solve per
diagonal block of at most 32 rows. The augmented systems of hedge,
prune_set and the oracle go through one Gaussian elimination with partial
pivoting over a stack of systems, whose pivots carry the singularity rule;
the oracle stacks all subsets of one size.

A result only counts as converged when the full certificate holds
(`MarginTable.certifies`): maximal margin at most margin_tol everywhere and
support margins at least -margin_tol; a solve that comes back to a state
raises CycleDetected.
"""

from dataclasses import dataclass, field
from itertools import combinations
from typing import Optional, Tuple

import numpy as np

from . import measure as msr
from . import objective as obj
from .objective import ZERO_TOL
from .errors import (
    AccessibilityFailure,
    CycleDetected,
    DomainError,
    InvalidInput,
    MaxIterExceeded,
    MonotonicityError,
    NoProgress,
    NotAnIndex,
    NotPrunable,
    TooLarge,
    integer,
    real,
)

ORACLE_CAP = 12
DECONSTRUCT_CAP = 16

# relative pivot threshold below which a system is declared singular: a
# pivot of the augmented system's elimination (partial pivoting) against the
# largest entry of its Gram block, and a squared pivot of the support factor
# against sigma, the Gram's largest diagonal entry, where the atom lies on
# the affine hull of the atoms bordered before it and the exchange walks its
# ray; never regularized silently
SINGULARITY_RTOL = 1e-10

# rows of a diagonal block in the support factor's blocked substitutions
_BLOCK = 32

# dust: a finished measure and every exchange cycle, the polish's included,
# drop atoms this light, except where dropping them costs the certificate at
# the finish or at a support-side landing
WEIGHT_TOL = 1e-10


@dataclass
class SolveConfig:
    algorithm: str = "exchange"
    margin_tol: float = obj.DEFAULT_MARGIN_TOL
    max_iter: int = 100000
    trace: bool = False
    seed_point: Optional[int] = None

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise InvalidInput(
                "algorithm must be one of %s, got %r" % (", ".join(ALGORITHMS), self.algorithm)
            )
        self.margin_tol = real(self.margin_tol, "margin_tol", positive=True)
        self.max_iter = integer(self.max_iter, "max_iter", positive=True)
        if self.seed_point is not None:
            self.seed_point = integer(self.seed_point, "seed_point")


@dataclass(frozen=True)
class TraceRow:
    iteration: int
    objective: float
    score: float
    support_size: int
    added_point: Optional[int] = None
    dropped_points: Tuple[int, ...] = ()


@dataclass(frozen=True)
class TopiaryResult:
    measure: msr.AtomicMeasure
    objective: float
    rate: float
    score: float
    index: Tuple[int, ...]
    iterations: int
    algorithm: str
    margin_tol: float
    trace: Optional[Tuple[TraceRow, ...]] = None

    @classmethod
    def evaluate(cls, measure, psi, kern, margin_tol, iterations, algorithm, trace=None):
        """The result for measure, read off one margin table."""
        return cls.from_table(
            measure, obj.margin_table(measure, psi, kern), margin_tol, iterations, algorithm, trace
        )

    @classmethod
    def from_table(cls, measure, table, margin_tol, iterations, algorithm, trace=None):
        return cls(
            measure=measure,
            objective=table.objective,
            rate=table.rate,
            score=table.score,
            index=tuple(int(i) for i in np.flatnonzero(np.abs(table.margins) <= margin_tol)),
            iterations=iterations,
            algorithm=algorithm,
            margin_tol=margin_tol,
            trace=trace,
        )

    def support(self):
        return self.measure.support()


@dataclass(frozen=True)
class ExchangeOutcome:
    measure: msr.AtomicMeasure
    objective: float
    inner_iterations: int  # major and minor cycles, one bordered solve each
    dropped: Tuple[int, ...]
    margin_at_x: float


def representatives(kern, psi_values, candidates=None):
    """Candidate ids with duplicate Gram rows collapsed.

    Representative of a duplicate group: maximal psi, then lowest id. A
    lower-psi twin has a strictly smaller margin under every measure, so
    discarding it changes nothing about the optimum.
    """
    if candidates is None:
        cand = list(range(kern.n))
    else:
        cand = sorted(set(kern._id(c) for c in candidates))
    cand_set = set(cand)
    drop = set()
    for group in kern.duplicate_groups():
        members = [i for i in group if i in cand_set]
        if len(members) < 2:
            continue
        rep = max(members, key=lambda i: (psi_values[i], -i))
        drop.update(i for i in members if i != rep)
    return [c for c in cand if c not in drop]


def _round_off(objective):
    """The change of an objective this large that round-off can make."""
    return 1e-12 * max(1.0, abs(objective))


class SolverState:
    """Single-owner working state advanced by greedy_step / prune / exchange.

    The state is the weight vector w over the ground set and `table`, the
    `objective.MarginTable` of w: its embedded values mu = G w, lin = psi . w,
    ||mu||^2 = w' G w, and from them the rate, objective, margins, score and
    argmax over the candidates. Every move of w, by the greedy step, prune,
    polish or exchange, builds one new table from w (`_refresh_caches`)
    through `MarginTable.tabulate`, the function `margin_table` also uses.
    The certificate (`converged`) and the monotonicity check read the table.

    For the exchange and the polish the state also keeps one lower Cholesky
    factor L of H = G_T + sigma 11', sigma the largest diagonal entry of G
    (1 on a zero diagonal), over the ids T it covers in join order; for PSD
    G_T, H is positive definite exactly when T is affinely independent. L
    lives in a buffer that grows geometrically, beside L^-1 psi_T, L^-1 1 and
    the inverses of L's full diagonal blocks of _BLOCK rows. `_cover`
    borders onto it the atoms of T it lacks, one blocked forward
    substitution (`_lower`) for all of them, refactors it when an atom it
    covers has left T, and stops at an atom on the affine hull of those
    before it. `hedges` solves the hedge of its ids and the shifted hedge of
    one more atom with one blocked back substitution (`_upper`) for both.
    Bordering adds no drift: the result is the Cholesky factor of its ids
    in join order. A Gram with 2 sigma past the float range is refused with
    DomainError.
    """

    def __init__(self, kern, psi, config=None, start=None, candidates=None):
        self.kernel = kern
        self.psi = obj.as_psi(psi, kern)
        self.config = config if config is not None else SolveConfig()
        self.G = kern.gram
        self.psi_values = self.psi.values
        self.candidates = np.asarray(
            representatives(kern, self.psi_values, candidates), dtype=int
        )
        if self.candidates.size == 0:
            raise InvalidInput("no candidates to optimize over")
        # the Gram's scale: the factor's pivot rule is relative to it
        self._sigma = kern.max_diagonal if kern.max_diagonal > 0.0 else 1.0
        if not np.isfinite(2.0 * self._sigma):  # bounds every entry of G + sigma
            raise DomainError("Gram diagonal %.3g overflows the support factor" % self._sigma)

        self.w = np.zeros(kern.n)
        if start is None:
            seed = self.config.seed_point
            if seed is not None:
                seed = self._to_candidate(seed)
            else:
                diag = np.diag(self.G)[self.candidates]
                vals = self.psi_values[self.candidates] - diag / 2.0
                seed = int(self.candidates[int(np.argmax(vals))])
            self.w[seed] = 1.0
        elif start.kind != msr.PROBABILITY:
            raise InvalidInput("the start of a solve must be a probability measure")
        else:
            self.w = start.as_vector(kern.n)
        self._refresh_caches()
        self.iterations = 0
        self.trace = [] if self.config.trace else None
        self._factor_ids = np.zeros(0, dtype=int)
        self._L = np.zeros((0, 0))  # buffer: the factor is its leading block
        self._z = np.zeros((0, 2))  # L^-1 [psi_F, 1], rows in join order
        self._inverses = {}  # first row -> inverse of a full diagonal block

    def _to_candidate(self, point_id):
        if point_id in self.candidates:
            return point_id
        # map a duplicate onto its surviving representative
        for group in self.kernel.duplicate_groups():
            if point_id in group:
                for rep in group:
                    if rep in self.candidates:
                        return rep
        raise InvalidInput("seed point %d is not a candidate" % point_id)

    def _refresh_caches(self):
        sup = np.flatnonzero(self.w)
        mu = self.w[sup] @ self.G[sup]  # rows: G is exactly symmetric
        self.table = obj.MarginTable.tabulate(
            self.psi_values, mu, float(self.psi_values[sup] @ self.w[sup]),
            float(self.w[sup] @ mu[sup]), self.candidates, np.diagonal(self.G)
        )

    @property
    def _factor(self):
        """The lower Cholesky factor of H over the factor's ids, in join
        order: the leading block of the buffer it grows in."""
        t = self._factor_ids.size
        return self._L[:t, :t]

    def hedges(self, x=None):
        """(V, c) on the factor's ids F in ascending order, one column per
        right-hand side of [[G_F, 1], [1', 0]] [v; c] = [b; 1]: b = psi_F,
        the hedge of F, and when x is given b = G[F, x], the shifted hedge
        of x.

        With z = L^-1 [b...] and z1 = L^-1 1, A = L^-T z and e = L^-T z1 come
        from one back substitution; V = A - e beta' and c = beta + sigma,
        where beta = (z1'z - 1) / z1'z1. L^-1 psi_F and z1 are kept from the
        borders, so only the shifted hedge adds a forward substitution.
        """
        F, sigma = self._factor_ids, self._sigma
        z = self._z[:F.size]
        if x is not None:
            z = np.column_stack([z[:, 0], self._lower(self.G[x, F]), z[:, 1]])
        Y = self._upper(z)
        z1 = z[:, -1]
        beta = (z1 @ z[:, :-1] - 1.0) / (z1 @ z1)
        return (Y[:, :-1] - np.outer(Y[:, -1], beta))[np.argsort(F)], beta + sigma

    def _cover(self, T):
        """Border the atoms of T that the factor lacks onto it, in the order
        T gives them, after emptying it if it covers an atom outside T.
        Returns None once it covers T, or else the first of them whose
        squared pivot is at most SINGULARITY_RTOL * sigma: that atom lies on
        the affine hull of the ids bordered before it, which the factor
        then covers."""
        F = self._factor_ids
        outside = np.ones(self.w.size, dtype=bool)
        outside[T] = False
        if outside[F].any():
            F = self._factor_ids = F[:0]
            self._inverses = {}
        outside[F] = True
        new = T[~outside[T]]
        return self._border(new) if new.size else None

    def _border(self, new):
        """Border new onto the factor, in order, up to the first atom whose
        squared pivot is at most SINGULARITY_RTOL * sigma, and return that
        atom (None when there is none). The Schur complement of several
        atoms goes through one `np.linalg.cholesky`, the leading block of
        whose factor is the factor of the leading atoms; where it is not
        positive definite, the atoms are bordered one at a time."""
        k, sigma = self._factor_ids.size, self._sigma
        self._reserve(k + new.size)
        rows = self.G[new]
        B = rows[:, self._factor_ids].T + sigma
        if k:
            B = self._lower(B)  # L^-1 H[F, new]
        C = rows[:, new] + sigma - B.T @ B
        if new.size == 1:
            D = np.sqrt(np.maximum(C, 0.0))
        else:
            try:
                D = np.linalg.cholesky(C)
            except np.linalg.LinAlgError:
                for i in range(new.size):
                    a = self._border(new[i:i + 1])
                    if a is not None:
                        return a
                return None
        small = np.diagonal(D) ** 2 <= SINGULARITY_RTOL * sigma
        m = int(np.argmax(small)) if small.any() else new.size
        self._append(new[:m], B[:, :m], D[:m, :m])
        return None if m == new.size else int(new[m])

    def _append(self, new, B, D):
        """Write the rows [B' D] of the atoms new into the factor and extend
        the kept L^-1 [psi_F, 1] by their rows: D z_new = r_new - B' z."""
        k, m = self._factor_ids.size, new.size
        if m == 0:
            return
        self._L[k:k + m, :k] = B.T
        self._L[k:k + m, k:k + m] = D
        r = np.column_stack([self.psi_values[new], np.ones(m)]) - B.T @ self._z[:k]
        self._factor_ids = np.concatenate([self._factor_ids, new])
        self._z[k:k + m] = r / D[0, 0] if m == 1 else self._lower(r, k)

    def _reserve(self, size):
        """Room for a factor over size atoms: the buffer grows geometrically,
        capped at the ground set, and keeps the factor it holds."""
        cap = self._L.shape[0]
        if size <= cap:
            return
        cap, t = min(self.w.size, max(size, 2 * cap)), self._factor_ids.size
        L, z = np.zeros((cap, cap)), np.zeros((cap, 2))
        L[:t, :t], z[:t] = self._L[:t, :t], self._z[:t]
        self._L, self._z = L, z

    def _block_inverse(self, s):
        """The inverse of the factor's full diagonal block at rows s..s+_BLOCK,
        cached until the factor is emptied: rows once bordered never change."""
        inv = self._inverses.get(s)
        if inv is None:
            inv = self._inverses[s] = np.linalg.inv(self._L[s:s + _BLOCK, s:s + _BLOCK])
        return inv

    def _lower(self, R, lo=0):
        """X with L[lo:t, lo:t] X = R, L the factor over t atoms: its diagonal
        blocks (rows s..e, cut at multiples of _BLOCK) in turn, each one
        product with the rows solved before it and one solve of the block."""
        L, t = self._L, self._factor_ids.size
        X = np.empty(R.shape)
        s = lo
        while s < t:
            e = min(t, (s // _BLOCK + 1) * _BLOCK)
            r = R[s - lo:e - lo] - L[s:e, lo:s] @ X[:s - lo] if s > lo else R[:e - lo]
            if e - s == _BLOCK:
                X[s - lo:e - lo] = self._block_inverse(s) @ r
            else:
                X[s - lo:e - lo] = np.linalg.solve(L[s:e, s:e], r)
            s = e
        return X

    def _upper(self, Z):
        """Y with L' Y = Z, L the factor: its diagonal blocks last to first,
        each one product with the rows solved after it and one solve."""
        L, t = self._L, self._factor_ids.size
        Y = np.empty(Z.shape)
        e = t
        while e > 0:
            s = (e - 1) // _BLOCK * _BLOCK
            r = Z[s:e] - L[e:t, s:e].T @ Y[e:t] if e < t else Z[s:e]
            if e - s == _BLOCK:
                Y[s:e] = self._block_inverse(s).T @ r
            else:
                Y[s:e] = np.linalg.solve(L[s:e, s:e].T, r)
            e = s
        return Y

    def support(self):
        return np.flatnonzero(self.w)

    def converged(self):
        return self.table.certifies(self.support(), self.config.margin_tol)

    def measure(self):
        sup = self.support()
        return msr.probability(sup, self.w[sup])

    def _record(self, added, dropped):
        if self.trace is not None:
            self.trace.append(
                TraceRow(
                    iteration=self.iterations,
                    objective=self.table.objective,
                    score=self.table.score,
                    support_size=int(self.support().size),
                    added_point=added,
                    dropped_points=tuple(int(d) for d in dropped),
                )
            )

    def _check_monotone(self, before, where):
        """Raise when the objective fell from before beyond round-off."""
        after = self.table.objective
        if after < before - _round_off(before):
            raise MonotonicityError(
                "%s decreased the objective from %.17g to %.17g" % (where, before, after)
            )


def greedy_step(state):
    """One exact-line-search step toward the maximal-margin candidate: plain
    conditional gradient, with no polish.

    Refuses to run when the score is within tolerance. Mutates and returns
    state.
    """
    s = state.table.score
    if s <= state.config.margin_tol:
        raise InvalidInput("score %.3g is within tolerance; nothing to add" % s)
    _step_greedy(state, s, state.table.argmax)
    return state


def _step_greedy(state, s, x):
    """The exact line-search step (`objective.line_search`) toward the
    argmax x, given its score s > margin_tol."""
    tab = state.table
    t, _ = obj.line_search(tab, state.G, x, s)
    state.w *= 1 - t
    state.w[x] += t
    state._refresh_caches()
    state.iterations += 1
    state._check_monotone(tab.objective, "greedy step")
    state._record(x, ())


def prune(state):
    """Delete disadvantageous atoms one at a time.

    An atom is disadvantageous when removing it and rescaling the rest
    raises the objective beyond round-off; a round-off gain would drop the
    atom the step just added, step after step. The largest improvement goes
    first, ties to the lowest id. No-op when no removal pays.
    """
    dropped = []
    while True:
        sup = state.support()
        if sup.size < 2:
            break
        ws = state.w[sup]
        feasible = ws < 1.0 - ZERO_TOL
        if not feasible.any():
            break
        ids = sup[feasible]
        wv = ws[feasible]
        tab = state.table
        lin_r = (tab.lin - wv * state.psi_values[ids]) / (1 - wv)
        nsq_r = (
            tab.norm_sq - 2 * wv * tab.mu[ids] + wv * wv * np.diag(state.G)[ids]
        ) / (1 - wv) ** 2
        gains = (lin_r - nsq_r / 2.0) - tab.objective
        best = float(gains.max())
        if best <= _round_off(tab.objective):
            break
        i = int(ids[int(np.argmax(gains == best))])
        state.w[i] = 0.0
        state.w /= state.w.sum()
        state._refresh_caches()
        dropped.append(i)
        state._check_monotone(tab.objective, "prune")
    if dropped:
        state._record(None, dropped)
    return state


def _polish(state):
    """Wolfe's support-side step, always kept.

    Line-search iterations crawl once the support already matches the optimal
    index; the exact weights on that face are its hedge. `_exchange_core`
    with no entering atom heads for the hedge of the support through the
    support factor, dropping each atom that empties on the way (Wolfe's
    minor cycles) or on a dependent atom's ray, so no move lowers the
    objective. Records one trace row and no iteration.
    """
    dropped, _, _ = _exchange_core(state, None, "polish")
    state._record(None, dropped)


# -- hedge and friends ------------------------------------------------------

def _augmented_solves(G_S, top):
    """Solve [[G_S, 1], [1', 0]] [v; c] = [top; 1] for each system of a
    stack: G_S is (b, s, s) and top (b, s).

    Each system is bordered with sigma, the largest |entry| of its G_S (1
    when that is 0), as [[G_S, sigma 1], [sigma 1', 0]] [v; c / sigma] =
    [top; sigma], so its largest entry is sigma at every scale. Gaussian
    elimination with partial pivoting, the right-hand side carried along,
    then back substitution. Returns (ratio, ok, v, c): ratio is each
    system's smallest pivot over sigma, ok marks the systems whose every
    pivot is finite and whose ratio exceeds SINGULARITY_RTOL, and v, c solve
    those, in stack order. A system is never regularized.
    """
    b, s = np.shape(top)
    n = s + 1
    sigma = np.abs(G_S).max(axis=(1, 2))
    sigma[sigma == 0.0] = 1.0
    A = np.zeros((b, n, n + 1))
    A[:, :s, :s] = G_S
    A[:, :s, s] = A[:, s, :s] = sigma[:, None]
    A[:, s, n] = sigma
    A[:, :s, n] = top
    pivots = np.empty((b, n))
    stack = np.arange(b)
    # a singular system's rows may overflow on the way; it is dropped below
    with np.errstate(all="ignore"):
        for j in range(n):
            p = j + np.argmax(np.abs(A[:, j:, j]), axis=1)
            A[stack, j], A[stack, p] = A[stack, p], A[stack, j].copy()
            pivots[:, j] = np.abs(A[:, j, j])
            f = A[:, j + 1:, j] / A[:, j, j, None]
            A[:, j + 1:, j:] -= f[:, :, None] * A[:, None, j, j:]
        ratio = pivots.min(axis=1) / sigma
    ok = np.isfinite(pivots).all(axis=1) & (ratio > SINGULARITY_RTOL)
    U = A[ok]
    x = np.empty((U.shape[0], n))
    for j in range(n - 1, -1, -1):
        x[:, j] = (U[:, j, n] - np.einsum("bi,bi->b", U[:, j, j + 1:n], x[:, j + 1:])) / U[:, j, j]
    return ratio, ok, x[:, :s], x[:, s] * sigma[ok]


def _augmented_solve(G_S, top):
    """The one system of `_augmented_solves` for the vector top: (v, c).
    Raises NotPrunable when it is singular."""
    ratio, ok, v, c = _augmented_solves(
        np.asarray(G_S)[None], np.asarray(top, dtype=float)[None])
    if not ok[0]:
        raise NotPrunable(
            "augmented system is singular (smallest pivot %.3g of its scale, rule %.0e)"
            % (ratio[0], SINGULARITY_RTOL)
        )
    return v[0], float(c[0])


def hedge(kern, psi, A):
    """Signed mass-one measure whose margin vanishes identically on A.

    Solves sum_j w_j k(x_j, x_i) + c = psi(x_i) on A together with
    sum w_j = 1; returns (measure, c) where c is the measure's rate. The
    unconstrained mean-variance optimum at risk tolerance two, in the
    portfolio reading. Sets without a hedge raise NotPrunable.
    """
    psi = obj.as_psi(psi, kern)
    ids = _validate_subset(kern, A)
    v, c = _augmented_solve(kern.gram[np.ix_(ids, ids)], psi.values[ids])
    return msr.signed(ids, v), c


def grow_set(kern, psi, A, candidates=None, config=None):
    """Points outside A with positive margin under the topiary of A."""
    psi = obj.as_psi(psi, kern)
    cfg = config if config is not None else SolveConfig()
    result = solve_subset(kern, psi, A, cfg)
    iota = obj.margins(result.measure, psi, kern)
    pool = range(kern.n) if candidates is None else (kern._id(x) for x in candidates)
    a_set = set(_validate_subset(kern, A))
    return tuple(sorted(x for x in pool if x not in a_set and iota[x] > cfg.margin_tol))


def prune_set(kern, psi, A):
    """Support of the negative part of hedge(A)."""
    h, _ = hedge(kern, psi, A)
    return tuple(sorted(int(i) for i, w in h.atoms if w < -WEIGHT_TOL))


def _validate_subset(kern, A):
    ids = sorted(set(kern._id(a) for a in A))
    if not ids:
        raise InvalidInput("subset is empty")
    return ids


# -- exchange ---------------------------------------------------------------

def _exchange_core(state, x, where="exchange"):
    """Wolfe's rule: move w toward the hedge of T = support + x, dropping the
    first atom that empties on the way, until w lands on the hedge of a T.

    Each cycle borders T onto the state's support factor, x last
    (`SolverState._cover`), and solves the hedge of T through it
    (`SolverState.hedges`, one bordered solve). The hedge maximizes the
    concave objective on the affine hull of T, so no move lowers it. When T
    has no hedge, the factor names an atom a of T, x included, on the affine
    hull of the atoms bordered before it: the objective is linear along
    delta_a - nu, nu the shifted hedge of a on those atoms, and w walks that
    ray uphill to its first empty atom instead. If x itself empties, or x is
    None (a support-side step), T is the support alone. Each cycle drops
    its dust atoms, but a support-side landing keeps them when dropping them
    costs the certificate, as the finish does. A landing that leaves the
    margin at x above tolerance starts another major cycle. T only shrinks
    within a major cycle, so a dropped atom cannot re-enter (ko rule).
    Returns (dropped ids, cycle count, final margin at x); a fall of the
    objective raises MonotonicityError naming `where`.
    """
    w = state.w
    tol = state.config.margin_tol
    dropped = []
    inner = 0
    limit = 2 * len(w) + 8
    enter = x
    while True:
        sup = np.flatnonzero(w)
        S = sup[sup != enter]
        if S.size == 0:
            break  # w is delta_x, the hedge of T = {x}
        inner += 1
        if inner > limit:
            raise NoProgress("exchange did not land within %d cycles (entering %s)" % (limit, x))
        before = state.table.objective
        a = state._cover(S if enter is None else np.append(S, enter))
        F = np.sort(state._factor_ids)
        if a is None:
            T, y = F, state.hedges()[0][:, 0]
        else:
            # T has no hedge: a lies on the affine hull of F, the atoms
            # bordered before it, so the objective is linear along
            # delta_a - nu; its slope is the margin at a less nu's on F
            T, nu, iota = np.append(F, a), state.hedges(a)[0][:, 1], state.table.margins
            y, slope = None, iota[a] - nu @ iota[F]
        # no target: walk uphill along the ray of T's last atom
        d = np.copysign(1.0, slope) * np.append(-nu, 1.0) if y is None else y - w[T]
        shrink = d < 0.0
        ratios = w[T][shrink] / -d[shrink]
        reach = np.inf if y is None else 1.0
        step = min(reach, float(ratios.min(initial=np.inf)))
        if step == reach:
            w[T] = y
        else:
            w[T] += step * d
            w[T[shrink][np.argmin(ratios)]] = 0.0
        dust = S[w[S] < WEIGHT_TOL]
        landed = w / w.sum() if x is None and step == reach and dust.size else None
        w[dust] = 0.0
        dropped.extend(dust.tolist())
        if enter is not None and w[enter] <= 0.0:
            w[enter], enter = 0.0, None
        w /= w.sum()
        state._refresh_caches()
        if landed is not None and not state.converged():
            # the finish's rule: a support-side landing keeps its dust when
            # dropping it costs the certificate
            swept, table = w.copy(), state.table
            w[:] = landed
            state._refresh_caches()
            if state.converged():
                del dropped[len(dropped) - dust.size:]
            else:
                w[:], state.table = swept, table
        state._check_monotone(before, where)
        if step == reach:
            if x is None or state.table.margins[x] <= tol:
                break
            enter = x
    return dropped, inner, None if x is None else float(state.table.margins[x])


def exchange_add(kern, psi, mu, x, config=None):
    """Add the point x to a measure that is the topiary of its own support.

    Heads for the hedge of the support plus x, dropping the first atom that
    empties on the way and heading for the hedge of what is left, until it
    lands (Wolfe's major and minor cycles, `_exchange_core`). Dropped atoms
    stay out (ko rule). Ends when the margin at x is within tolerance;
    inner_iterations counts the cycles, one bordered solve each.
    """
    cfg = config if config is not None else SolveConfig()
    x = kern._id(x)
    state = SolverState(kern, psi, cfg, start=mu)
    if state.w[x] > 0:
        raise InvalidInput("point %d already carries weight" % x)
    iota_x = float(state.table.margins[x])
    if iota_x <= cfg.margin_tol:
        raise InvalidInput(
            "margin %.3g at point %d is not positive; nothing to add" % (iota_x, x)
        )
    dropped, inner, final = _exchange_core(state, x)
    return ExchangeOutcome(
        measure=state.measure(),
        objective=state.table.objective,
        inner_iterations=inner,
        dropped=tuple(dropped),
        margin_at_x=final,
    )


# -- full solves ------------------------------------------------------------

def _round_sig(x, digits=12):
    if x == 0.0 or not np.isfinite(x):
        return x
    from math import floor, log10

    return round(x, digits - 1 - int(floor(log10(abs(x)))))


def _finish(state):
    """The result of a state, tabulated over the candidates its certificate
    ranges over: its measure with dust atoms dropped, unless dropping them
    costs the certificate that the full measure carries."""
    tol = state.config.margin_tol
    full = state.measure()
    measure = msr.drop_small_atoms(full, WEIGHT_TOL)
    table = obj.MarginTable.of(measure, state.psi_values, state.candidates, state.G)
    if measure is not full and not table.certifies(measure.ids, tol):
        full_table = obj.MarginTable.of(full, state.psi_values, state.candidates, state.G)
        if full_table.certifies(full.ids, tol):
            measure, table = full, full_table
    trace = tuple(state.trace) if state.trace is not None else None
    return TopiaryResult.from_table(
        measure, table, tol, state.iterations, state.config.algorithm, trace
    )


# -- one solve loop, one step per algorithm -----------------------------------
#
# Each step advances a state whose certificate failed, given its score s and
# argmax x, and counts one iteration; the loop owns the iteration budget and
# the finish. A score at most margin_tol means only a support margin failed:
# then no new atom enters, and every step heads for the hedge of the support.

def _step_fully_corrective(state, s, x):
    if s > state.config.margin_tol:
        _step_greedy(state, s, x)
    else:
        state.iterations += 1
    _polish(state)


def _step_second_greedy(state, s, x):
    if s > state.config.margin_tol:
        _step_greedy(state, s, x)
        prune(state)
    else:
        state.iterations += 1
    _polish(state)


def _step_exchange(state, s, x):
    enter = x if s > state.config.margin_tol else None
    before = state.table.objective
    dropped, _, _ = _exchange_core(state, enter)
    state.iterations += 1
    state._check_monotone(before, "exchange")
    state._record(enter, dropped)


_STEPS = {
    "greedy": _step_fully_corrective,
    "second-greedy": _step_second_greedy,
    "exchange": _step_exchange,
}

ALGORITHMS = tuple(_STEPS)


def solve(kern, psi, config=None, candidates=None):
    """The optimal measure over candidates (default: the ground set) by
    config.algorithm, scored and certified over those candidates."""
    cfg = config if config is not None else SolveConfig()
    state = SolverState(kern, psi, cfg, candidates=candidates)
    step = _STEPS[cfg.algorithm]
    seen = set()
    while not state.converged():
        if state.iterations >= cfg.max_iter:
            partial = _finish(state)
            raise MaxIterExceeded(
                "%s hit max_iter %d with score %.3g"
                % (cfg.algorithm, cfg.max_iter, partial.score),
                result=partial,
            )
        key = (frozenset(state.support().tolist()), _round_sig(state.table.objective))
        if key in seen:
            raise CycleDetected(
                "%s revisited a support/objective pair" % cfg.algorithm, result=_finish(state)
            )
        seen.add(key)
        try:
            step(state, state.table.score, state.table.argmax)
        except (NoProgress, MonotonicityError) as exc:
            exc.result = _finish(state)
            raise
    return _finish(state)


def solve_subset(kern, psi, subset, config=None):
    """Topiary of a subset of the ground set, by exchange under the caller's
    margin_tol and max_iter only: default seed, no trace."""
    ids = _validate_subset(kern, subset)
    cfg = config if config is not None else SolveConfig()
    return solve(
        kern, psi, SolveConfig(margin_tol=cfg.margin_tol, max_iter=cfg.max_iter), candidates=ids
    )


def is_topiaric_index(kern, psi, B, config=None):
    """True when the topiary of B has margin zero on all of B."""
    psi = obj.as_psi(psi, kern)
    cfg = config if config is not None else SolveConfig()
    ids = _validate_subset(kern, B)
    return set(ids) <= set(solve_subset(kern, psi, ids, cfg).index)


def construction_ordering(kern, psi, K, config=None):
    """Ordering of a topiaric index whose every initial segment is an index.

    Found by peeling removable points (highest id first, so the built-up
    ordering starts from the lowest ids) and reversing the removal order.
    Existence is guaranteed in exact arithmetic; failure to find a removable
    point therefore reports the margin evidence and blames tolerances.
    """
    psi = obj.as_psi(psi, kern)
    cfg = config if config is not None else SolveConfig()
    ids = _validate_subset(kern, K)
    if len(ids) > DECONSTRUCT_CAP:
        raise TooLarge(
            "deconstruction over %d points exceeds the cap %d" % (len(ids), DECONSTRUCT_CAP)
        )
    if not is_topiaric_index(kern, psi, ids, cfg):
        raise NotAnIndex("input set is not a topiaric index")
    removals = []
    current = list(ids)
    while len(current) > 1:
        evidence = {}
        removable = None
        for x in sorted(current, reverse=True):
            rest = [y for y in current if y != x]
            result = solve_subset(kern, psi, rest, cfg)
            iota = obj.margins(result.measure, psi, kern)
            worst = float(np.max(np.abs(iota[rest])))
            if worst <= cfg.margin_tol:
                removable = x
                break
            evidence[x] = worst
        if removable is None:
            raise AccessibilityFailure(
                "no single-point deletion stays an index; residual margins: %s"
                % ", ".join("%d: %.3g" % (x, e) for x, e in sorted(evidence.items()))
            )
        removals.append(removable)
        current = [y for y in current if y != removable]
    return tuple(current + list(reversed(removals)))


def oracle_solve(kern, psi, K=None, config=None):
    """Exhaustive ground truth for small problems.

    Enumerates every non-empty support candidate, solves its hedge system,
    and keeps solutions that are feasible (weights nonnegative, margins
    nonpositive off the support). The feasible maximum is the optimum by
    the concavity of the objective; a tie goes to the first subset in the
    enumeration (by size, then `combinations` order). The subsets of one
    size are solved as one stack (`_augmented_solves`). Independent of the
    iterative solvers and of `SolverState`.
    """
    psi = obj.as_psi(psi, kern)
    cfg = config if config is not None else SolveConfig()
    ids = list(range(kern.n)) if K is None else _validate_subset(kern, K)
    if len(ids) > ORACLE_CAP:
        raise TooLarge(
            "oracle enumerates subsets of at most %d points, got %d" % (ORACLE_CAP, len(ids))
        )
    members = np.asarray(ids, dtype=int)
    G = kern.gram[np.ix_(members, members)]
    pv = psi.values[members]
    best = None
    examined = 0
    for size in range(1, members.size + 1):
        # every subset of this size, in the order `combinations` gives them
        S = np.array(list(combinations(range(members.size), size)))
        examined += len(S)
        G_S = G[S[:, :, None], S[:, None, :]]
        _, ok, v, c = _augmented_solves(G_S, pv[S])
        S, G_S = S[ok], G_S[ok]
        margins = pv - np.einsum("bjn,bj->bn", G[S], v) - c[:, None]
        margins[np.arange(len(S))[:, None], S] = -np.inf  # the support's own
        feasible = (v.min(axis=1) >= -1e-12) & (margins.max(axis=1) <= 1e-9)
        if not feasible.any():
            continue
        objective = np.where(
            feasible, np.einsum("bi,bi->b", pv[S], v)
            - np.einsum("bi,bij,bj->b", v, G_S, v) / 2.0, -np.inf)
        i = int(np.argmax(objective))  # the first of a tie, as in the enumeration
        if best is None or objective[i] > best[0]:
            best = (float(objective[i]), members[S[i]], v[i])
    if best is None:
        raise NoProgress("oracle found no feasible support; input is inconsistent")
    _, sel, v = best
    return TopiaryResult.evaluate(
        msr.probability(sel, v), psi, kern, cfg.margin_tol, examined, "oracle"
    )
