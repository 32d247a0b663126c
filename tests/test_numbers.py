"""One rule for a number from outside: every constructor refuses bools,
strings, fractional integers, NaN and infinities with InvalidInput, and a
file reader accepts a value exactly when the constructor it feeds does."""

import json
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import topiary as tp
from topiary import formats as fm

INT_BAD = (1.7, True, "2", math.nan, math.inf)
REAL_BAD = (True, "0.5", math.nan, math.inf, -math.inf)


def _spec(**kw):
    args = dict(labels=("a", "b"), mean=(0.1, 0.2), covariance=((0.04, 0.0), (0.0, 0.09)))
    args.update(kw)
    return tp.PortfolioSpec(**args)


def _maze(**kw):
    mask = np.ones((1, 1), dtype=bool)
    return tp.MazeSpec(**dict(dict(mask=mask, cell_size=1.0, origin_offset=1 + 0j), **kw))


def _solved_maze():
    return tp.solve_maze(_maze())  # one obstacle cell: cheap


def _diagnose(report, **kw):
    """report on the uniform optimum over explicit_gram(eye(4)), psi = 0:
    every point is in the index."""
    kern = tp.explicit_gram(np.eye(4))
    return report(tp.solve(kern, None), kern, None, **kw)


# field -> call taking the value
INT_FIELDS = {
    "Kernel._id": lambda v: tp.explicit_gram(np.eye(3))._id(v),
    "AtomicMeasure id": lambda v: tp.AtomicMeasure(((v, 1.0),)),
    "PortfolioSpec.annualize_factor": lambda v: _spec(annualize_factor=v),
    "PortfolioSpec.rf_index": lambda v: _spec(rf_index=v),
    "SolveConfig.max_iter": lambda v: tp.SolveConfig(max_iter=v),
    "SolveConfig.seed_point": lambda v: tp.SolveConfig(seed_point=v),
    "trace_path.max_steps": lambda v: tp.trace_path(_solved_maze(), max_steps=v),
    "potential_field.resolution": lambda v: tp.potential_field(_solved_maze(), resolution=v),
    "conjugate_field.resolution": lambda v: tp.conjugate_field(_solved_maze(), resolution=v),
}
DIAGNOSTIC_IDS = {
    "capm_report K": lambda v: _diagnose(tp.capm_report, K=[v]),
    "jc_report base_points": lambda v: _diagnose(tp.jc_report, base_points=[v]),
    "sml_points extras": lambda v: _diagnose(tp.sml_points, extras=[v]),
}
INT_FIELDS.update(DIAGNOSTIC_IDS)
REAL_FIELDS = {
    "explicit_gram entry": lambda v: tp.explicit_gram([[v, 0.0], [0.0, 1.0]]),
    "euclidean coordinate": lambda v: tp.euclidean([[v, 0.0], [0.0, 1.0]]),
    "fock [re, im]": lambda v: tp.fock([[v, 0.0], [0.0, 1.0]]),
    "fock complex": lambda v: tp.fock([v, 0.5j]),
    "hardy [re, im]": lambda v: tp.hardy([[0.0, v], [0.5, 0.0]]),
    "Kernel.row fock point": lambda v: tp.fock([0.5 + 0j]).row(v),
    "Kernel.row euclidean point": lambda v: tp.euclidean([[1.0, 0.0]]).row([v, 0.0]),
    "PsiSpec value": lambda v: tp.PsiSpec.table([v, 0.0]),
    "PsiSpec norm": lambda v: tp.PsiSpec([0.0], norm=v),
    "AtomicMeasure weight": lambda v: tp.AtomicMeasure(((0, v),), tp.SIGNED),
    "PortfolioSpec.mean": lambda v: _spec(mean=(v, 0.2)),
    "PortfolioSpec.covariance": lambda v: _spec(covariance=((v, 0.0), (0.0, 0.09))),
    "PortfolioSpec.risk_free_rate": lambda v: _spec(risk_free_rate=v),
    "PortfolioSpec.mean_shrink": lambda v: _spec(mean_shrink=v),
    "PortfolioSpec.var_inflate": lambda v: _spec(var_inflate=v),
    "SolveConfig.margin_tol": lambda v: tp.SolveConfig(margin_tol=v),
    "MazeSpec.cell_size": lambda v: _maze(cell_size=v),
    "MazeSpec.escape_radius": lambda v: _maze(escape_radius=v),
    "MazeSpec.target": lambda v: _maze(target=v),
    "MazeSpec.origin_offset": lambda v: _maze(origin_offset=v),
    "trace_path.step_size": lambda v: tp.trace_path(_solved_maze(), step_size=v),
}
CASES = [(name, v) for name in INT_FIELDS for v in INT_BAD] + [
    (name, v) for name in REAL_FIELDS for v in REAL_BAD]


@pytest.mark.parametrize("name,value", CASES, ids=["%s=%r" % case for case in CASES])
def test_constructor_refuses_a_bad_number(name, value):
    call = INT_FIELDS.get(name) or REAL_FIELDS[name]
    with pytest.raises(tp.InvalidInput):
        call(value)


@pytest.mark.parametrize("point", [-1, 4])
@pytest.mark.parametrize("name", sorted(DIAGNOSTIC_IDS))
def test_diagnostics_refuse_an_id_outside_the_ground_set(name, point):
    with pytest.raises(tp.InvalidInput, match="outside ground set of size 4"):
        DIAGNOSTIC_IDS[name](point)


def test_every_field_accepts_a_good_number():
    """The table above tests the fields, not a call that fails anyway."""
    for call in INT_FIELDS.values():
        call(1)
    for name, call in REAL_FIELDS.items():
        call(0.5 if "origin" not in name and "target" not in name else 2.0)


def test_checked_values_are_kept():
    spec = _spec(rf_index=1.0, annualize_factor=np.int64(12), mean_shrink=np.float32(0.5))
    assert (type(spec.rf_index), type(spec.annualize_factor)) == (int, int)
    assert type(spec.mean_shrink) is float
    assert tp.AtomicMeasure(((2.0, 1),)).atoms == ((2, 1.0),)
    assert tp.SolveConfig(seed_point=1.0, max_iter=5.0).seed_point == 1


@pytest.mark.parametrize("labels", ["ab", 5, None])
def test_portfolio_labels_must_be_a_list(labels):
    with pytest.raises(tp.InvalidInput):
        _spec(labels=labels)


def test_complex_points_need_two_columns():
    with pytest.raises(tp.InvalidInput, match="2|two|re, im"):
        tp.fock([[0.1, 0.2, 0.3], [0.0, 0.1, 0.2]])
    with pytest.raises(tp.InvalidInput):
        tp.hardy([[0.1], [0.2]])
    assert tp.fock([[0.1, 0.2], [0.0, 0.1]]).n == 2


@pytest.mark.parametrize("raw", [[[1.0, 0.0], [0.0]], [[1.0, None], [None, 1.0]]])
def test_ragged_or_null_gram_refused(raw):
    with pytest.raises(tp.InvalidInput):
        tp.explicit_gram(raw)


def test_fractional_ids_refused_by_measure_builders():
    with pytest.raises(tp.InvalidInput):
        tp.probability([1.7], [1.0])
    with pytest.raises(tp.InvalidInput):
        tp.convex_combine(tp.delta(0), 1.7, 0.5)


# -- a file reader accepts a number exactly when its constructor does ----------

_GRAM = [[2.0, 0.5], [0.5, 1.0]]
_SPEC = {"labels": ["a", "b"], "mean": [0.1, 0.2], "covariance": [[0.04, 0.0], [0.0, 0.09]]}


def _problem(kernel, psi=(0.0, 0.0)):
    return {"kernel": kernel, "psi": list(psi)}


# field -> (reader, file payload holding v, the same construction through the API)
FILE_FIELDS = {
    "psi": (fm.read_problem, lambda v: _problem({"type": "gram", "gram": _GRAM}, [v, 0.0]),
            lambda v: tp.as_psi([v, 0.0], tp.explicit_gram(_GRAM))),
    "gram": (fm.read_problem,
             lambda v: _problem({"type": "gram", "gram": [[v, 0.0], [0.0, 1.0]]}),
             lambda v: tp.explicit_gram([[v, 0.0], [0.0, 1.0]])),
    "euclidean": (fm.read_problem,
                  lambda v: _problem({"type": "euclidean", "points": [[v, 0.0], [0.0, 1.0]]}),
                  lambda v: tp.euclidean([[v, 0.0], [0.0, 1.0]])),
    "fock": (fm.read_problem,
             lambda v: _problem({"type": "fock", "points": [[0.0, v], [0.5, 0.0]]}),
             lambda v: tp.fock([[0.0, v], [0.5, 0.0]])),
    "atom point": (fm.read_measure,
                   lambda v: {"kind": "signed", "atoms": [{"point": v, "weight": 1.0}]},
                   lambda v: tp.AtomicMeasure(((v, 1.0),), tp.SIGNED)),
    "atom weight": (fm.read_measure,
                    lambda v: {"kind": "signed", "atoms": [{"point": 0, "weight": v}]},
                    lambda v: tp.AtomicMeasure(((0, v),), tp.SIGNED)),
    "mean": (fm.read_portfolio_spec, lambda v: dict(_SPEC, mean=[v, 0.2]),
             lambda v: _spec(mean=[v, 0.2])),
    "covariance": (fm.read_portfolio_spec,
                   lambda v: dict(_SPEC, covariance=[[0.04, 0.0], [0.0, v]]),
                   lambda v: _spec(covariance=[[0.04, 0.0], [0.0, v]])),
}
for _key in ("risk_free_rate", "mean_shrink", "var_inflate", "annualize_factor", "rf_index"):
    FILE_FIELDS[_key] = (fm.read_portfolio_spec,
                         lambda v, k=_key: dict(_SPEC, **{k: v}),
                         lambda v, k=_key: _spec(**{k: v}))

JSON_SCALARS = st.one_of(
    st.booleans(),
    st.integers(min_value=-3, max_value=3),
    st.integers(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(["0.5", "2", "nan", "1e400", "", "x"]),
    st.text(max_size=3),
)


def _outcome(call, *args):
    try:
        call(*args)
    except tp.TopiaryError as exc:
        return type(exc)
    return None


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # huge coordinates overflow the Gram
@pytest.mark.parametrize("field", sorted(FILE_FIELDS))
def test_file_reader_accepts_a_number_exactly_when_the_constructor_does(field):
    reader, payload, construct = FILE_FIELDS[field]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.json")

        @settings(max_examples=60, deadline=None)
        @given(JSON_SCALARS)
        def check(value):
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(payload(value), handle)
            assert _outcome(reader, path) == _outcome(construct, value)

        check()


def test_returns_cells_refuse_bools():
    """Return cells are strings straight from CSV or numbers, never bools."""
    table = tp.ReturnsTable(labels=("a", "b"), rows=((True, 0.1), (0.2, 0.0), (0.1, 0.3)))
    with pytest.raises(tp.NonNumericCell, match="row 1, column 1"):
        tp.ingest_returns(table)
