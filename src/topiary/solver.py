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
  the hedge of the rest. A face without a hedge, where an atom lies on the
  affine hull of the others, is walked along that atom's ray.
  Exact in a handful of steps, and sound on ill-conditioned Grams.

Also: hedge (the signed mass-one measure with margin identically zero on a
set), grow/prune sets, topiaric-index predicates, removal orderings, and a
subset-enumeration oracle used as independent ground truth in tests.

A result only counts as converged when the full certificate holds
(`MarginTable.certifies`): maximal margin at most margin_tol everywhere and
support margins at least -margin_tol; a solve that comes back to a state
raises CycleDetected.
"""

from dataclasses import dataclass, field
from itertools import combinations
from typing import Optional, Tuple
import warnings

import numpy as np
import scipy.linalg

from . import measure as msr
from . import objective as obj
from .objective import ZERO_TOL
from .errors import (
    AccessibilityFailure,
    CycleDetected,
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

# relative pivot threshold below which a system is declared singular: an LU
# pivot of the augmented system against max(1, max|M|), and a squared pivot
# of the support factor or the exchange's ||delta_x - nu||^2 against sigma,
# where the atom lies on the affine hull of the atoms before it and the
# exchange walks its ray; never regularized silently
SINGULARITY_RTOL = 1e-10

# dust: a finished measure and every exchange cycle, the polish's included,
# drop atoms this light
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
    factor of H = G_S + sigma 11', sigma = max(1, max diag G), over the ids
    it covers in join order; for PSD G_S, H is positive definite exactly
    when S is affinely independent. `_cover` borders onto it the atoms of S
    it lacks, an O(s^2) triangular solve each, refactors it when an atom it
    covers has left S, and stops at an atom on the affine hull of those
    before it. `hedges` solves the hedge of its ids and the shifted hedge of
    one more atom, one `cho_solve` for both. Bordering adds no drift: the
    result is the Cholesky factor of its ids in join order.
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
        self._sigma = max(1.0, float(np.max(np.diag(self.G))))
        self._factor_ids = np.zeros(0, dtype=int)
        self._factor = np.zeros((0, 0), order="F")

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
            float(self.w[sup] @ mu[sup]), self.candidates, self.G
        )

    def hedges(self, x=None):
        """(V, c) on the factor's ids F in ascending order, one column per
        right-hand side of [[G_F, 1], [1', 0]] [v; c] = [b; 1]: b = psi_F,
        the hedge of F, and when x is given b = G[F, x], the shifted hedge
        of x.

        With A = H^-1 [b...] and e = H^-1 1 from one `cho_solve`,
        V = A - e beta' and c = beta + sigma, where beta = (1'A - 1) / 1'e.
        """
        rows = (self.psi_values,) if x is None else (self.psi_values, self.G[x])
        F = self._factor_ids
        rhs = np.column_stack([r[F] for r in rows] + [np.ones(F.size)])
        sol = scipy.linalg.cho_solve((self._factor, True), rhs, check_finite=False)
        A, e = sol[:, :-1], sol[:, -1]
        beta = (A.sum(axis=0) - 1.0) / e.sum()
        return (A - np.outer(e, beta))[np.argsort(F)], beta + self._sigma

    def _cover(self, S):
        """Border the atoms of S that the factor lacks onto it, in ascending
        order, after emptying it if it covers an atom outside S. Returns
        None once it covers S, or else the first of them whose squared pivot
        is at most SINGULARITY_RTOL * sigma: that atom lies on the affine
        hull of the ids bordered before it, which the factor then covers."""
        F = self._factor_ids
        outside = np.ones(self.w.size, dtype=bool)
        outside[S] = False
        if outside[F].any():
            F = self._factor_ids = F[:0]
            self._factor = self._factor[:0, :0]
        outside[F] = True
        new = S[~outside[S]]
        if new.size == 0:
            return None
        self._factor, k = self._border(new)
        self._factor_ids = np.concatenate([F, new[:k]])
        return None if k == new.size else int(new[k])

    def _border(self, new):
        """(factor of H over the factor's ids then new[:k], k), where new[k]
        is the first atom whose squared pivot is at most SINGULARITY_RTOL *
        sigma, or k = new.size when there is none."""
        F, L, sigma = self._factor_ids, self._factor, self._sigma
        k = F.size
        B = np.zeros((k, new.size))
        if k:
            B = scipy.linalg.solve_triangular(
                L, self.G[np.ix_(F, new)] + sigma, lower=True, check_finite=False
            )
        C = self.G[np.ix_(new, new)] + sigma - B.T @ B
        m = new.size
        try:
            D = np.linalg.cholesky(C)
        except np.linalg.LinAlgError:
            D = None
        if D is None or float(np.min(np.diag(D))) ** 2 <= SINGULARITY_RTOL * sigma:
            # potrf's info names the first pivot that is not positive, and
            # the columns before it are the factor of their leading block
            D, info = scipy.linalg.lapack.dpotrf(C, lower=True, clean=True)
            m = info - 1 if info else m
            m = next((j for j in range(m) if D[j, j] ** 2 <= SINGULARITY_RTOL * sigma), m)
            D, B = D[:m, :m], B[:, :m]
        out = np.zeros((k + m, k + m), order="F")
        out[:k, :k] = L
        out[k:, :k] = B.T
        out[k:, k:] = D
        return out, m

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
    """The exact line-search step toward the argmax x, given its score
    s > margin_tol: along delta_x - mu the objective is s t - d2 t^2 / 2, so
    t = 1 when d2 <= s, a zero-length direction among them."""
    tab = state.table
    d2 = float(state.G[x, x] - 2.0 * tab.mu[x] + tab.norm_sq)
    t = 1.0 if d2 <= s else s / d2
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

def _augmented_solve(G_S, top):
    """Solve [[G_S, 1], [1', 0]] [v; c] = [top; 1], column by column when
    top is a matrix.

    Raises NotPrunable when a pivot falls under SINGULARITY_RTOL relative to
    the largest entry. The system is never regularized.
    """
    s = G_S.shape[0]
    M = np.zeros((s + 1, s + 1))
    M[:s, :s] = G_S
    M[:s, s] = 1.0
    M[s, :s] = 1.0
    top = np.asarray(top, dtype=float)
    rhs = np.concatenate([top, np.ones((1,) + top.shape[1:])])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # scipy warns on exact zero pivots
        lu, piv = scipy.linalg.lu_factor(M, check_finite=False)
    pivots = np.abs(np.diag(lu))
    scale = float(np.max(np.abs(M)))
    if float(pivots.min()) <= SINGULARITY_RTOL * max(scale, 1.0):
        raise NotPrunable(
            "augmented system is singular (pivot %.3g against scale %.3g)"
            % (float(pivots.min()), scale)
        )
    sol = scipy.linalg.lu_solve((lu, piv), rhs, check_finite=False)
    return sol[:s], (sol[s] if top.ndim > 1 else float(sol[s]))


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

    Each cycle solves, through the state's support factor, the hedge h of
    S = T - x and the shifted hedge nu of x (`SolverState.hedges`, one
    bordered solve). The hedge of T is then h + tau (delta_x - nu), with tau
    the margin of x under h over ||delta_x - nu||^2. It maximizes the
    concave objective on the affine hull of T, so no move lowers it. When
    that squared length is at most SINGULARITY_RTOL * sigma, T is affinely
    dependent, the objective is linear along delta_x - nu, and w walks that
    ray uphill to its first empty atom instead. If x itself empties, or x is
    None (a support-side step), the target is h. When S has no hedge, the
    factor names an atom a of S on the affine hull of the atoms bordered
    before it, and w walks the ray of a the same way. A landing that leaves
    the margin at x above tolerance starts another major cycle. T only shrinks
    within a major cycle, so a dropped atom cannot re-enter (ko rule).
    Returns (dropped ids, cycle count, final margin at x); a fall of the
    objective raises MonotonicityError naming `where`.
    """
    G, psi_values, w = state.G, state.psi_values, state.w
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
        a = state._cover(S)
        if a is not None:
            # S has no hedge: a lies on the affine hull of F, the atoms
            # bordered before it, so the objective is linear along
            # delta_a - nu; its slope is the margin at a less nu's on F
            F = np.sort(state._factor_ids)
            T, nu, iota = np.append(F, a), state.hedges(a)[0][:, 1], state.table.margins
            y, slope = None, iota[a] - nu @ iota[F]
        elif enter is None:
            T, y = S, state.hedges()[0][:, 0]
        else:
            V, c = state.hedges(enter)
            T = np.append(S, enter)
            h, nu, g = V[:, 0], V[:, 1], G[S, enter]
            quad = float(G[enter, enter] - nu @ g - c[1])  # ||delta_x - nu||^2
            lift = float(psi_values[enter] - h @ g - c[0])  # margin at x under h
            if quad > SINGULARITY_RTOL * state._sigma:
                y = np.append(h - (lift / quad) * nu, lift / quad)
            else:
                y, slope = None, lift
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
        w[dust] = 0.0
        dropped.extend(dust.tolist())
        if enter is not None and w[enter] <= 0.0:
            w[enter], enter = 0.0, None
        w /= w.sum()
        state._refresh_caches()
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
        step(state, state.table.score, state.table.argmax)
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
    the concavity of the objective. Independent of the iterative solvers.
    """
    psi = obj.as_psi(psi, kern)
    cfg = config if config is not None else SolveConfig()
    ids = list(range(kern.n)) if K is None else _validate_subset(kern, K)
    if len(ids) > ORACLE_CAP:
        raise TooLarge(
            "oracle enumerates subsets of at most %d points, got %d" % (ORACLE_CAP, len(ids))
        )
    G = kern.gram
    pv = psi.values
    id_arr = np.asarray(ids, dtype=int)
    best = None
    examined = 0
    for size in range(1, len(ids) + 1):
        for S in combinations(range(len(ids)), size):
            examined += 1
            sel = id_arr[list(S)]
            G_S = G[np.ix_(sel, sel)]
            try:
                v, c = _augmented_solve(G_S, pv[sel])
            except NotPrunable:
                continue
            if v.min() < -1e-12:
                continue
            rest = np.setdiff1d(id_arr, sel)
            if rest.size:
                mu_rest = G[np.ix_(rest, sel)] @ v
                if float((pv[rest] - mu_rest - c).max()) > 1e-9:
                    continue
            objective = float(pv[sel] @ v) - float(v @ G_S @ v) / 2.0
            if best is None or objective > best[0]:
                best = (objective, sel, v)
    if best is None:
        raise NoProgress("oracle found no feasible support; input is inconsistent")
    _, sel, v = best
    return TopiaryResult.evaluate(
        msr.probability(sel, v), psi, kern, cfg.margin_tol, examined, "oracle"
    )
