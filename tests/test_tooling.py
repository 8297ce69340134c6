"""The perfbench tracer wraps library functions by the names in its
``TRACED`` table, and counts the scalar ``FieldSpec`` methods named in its
``COUNTED`` table; a name the library no longer defines makes ``--trace 1``
fail at install.  The tracer and the runner are read as source, so no
bytecode is written next to them.  The library sources are read the same way,
to check that they hold no ``assert`` statement.  Every name the package
exports in ``__all__`` must resolve on it."""

import ast
import types
from pathlib import Path

import ffmult
from ffmult import rs_decode as rs
from ffmult.ff import FieldSpec, field_make, parse_field_spec

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
RUNNER = TRACER.with_name("run.py")
LIBRARY = TRACER.parents[1] / "src" / "ffmult"
# every extension field a perfbench workload makes
WORKLOAD_TABLE_FIELDS = ["2^2", "2^3", "2^4", "2^6", "2^8", "2^16", "3^2", "3^3"]


def _tracer():
    module = types.ModuleType("perfbench_tracer")
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"), module.__dict__)
    return module


def test_package_exports_resolve():
    # a name left in __all__ after its object is gone breaks `import *`
    missing = [name for name in ffmult.__all__ if not hasattr(ffmult, name)]
    assert not missing, f"ffmult.__all__ names no attribute: {missing}"


def test_traced_names_resolve_on_ffmult():
    for module, func, *_ in _tracer().TRACED:
        assert callable(getattr(getattr(ffmult, module), func, None)), f"{module}.{func}"


def test_counted_names_are_fieldspec_methods():
    # the call counter replaces each one in the class dict itself
    for name in _tracer().COUNTED:
        assert callable(vars(FieldSpec).get(name)), f"FieldSpec.{name}"


def test_traced_decode_records_the_row_build():
    tracer = _tracer()
    rec = tracer.SpanRecorder()
    inst = rs.RSInstance(field_make(5), (0, 1, 2, 3, 4), (0, 1, 2, 0, 0), k=1, t=3)
    rec.install(ffmult)
    try:
        rec.op = "decode"
        assert rs.list_decode(inst) == [(0, 0), (0, 1)]
    finally:
        rec.uninstall()
    assert not tracer.leftover_wrappers()
    counts = rec.summary({"decode"})["counts"]
    assert counts["interpolate.vanishing_constraints.rows"] > 0
    assert counts["rs_decode.agreement.calls"] == 1


def _setup_script() -> str:
    for node in ast.parse(RUNNER.read_text(encoding="utf-8")).body:
        names = [getattr(t, "id", None) for t in getattr(node, "targets", ())]
        if names == ["SETUP_SCRIPT"]:
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/run.py defines no SETUP_SCRIPT")


def test_setup_builds_the_one_copy_of_each_fields_tables():
    # setup_s times the table build through this call
    assert "ffmult.parse_field_spec(text).mul(1, 1)" in _setup_script()
    for text in WORKLOAD_TABLE_FIELDS:
        spec = parse_field_spec(text)
        assert spec.mul(1, 1) == 1
        assert spec._exp is not None
        assert spec.vec.log is spec._log and spec.vec.exp is spec._exp


def test_library_holds_no_assert_statement():
    # python -O strips asserts, so a library invariant must be an explicit raise
    sources = sorted(LIBRARY.glob("*.py"))
    assert sources
    found = [f"{path.name}:{node.lineno}"
             for path in sources
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in the library: {found}"
