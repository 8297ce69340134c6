"""The perfbench tracer wraps library functions by the names in its
``TRACED`` table, and counts the scalar ``FieldSpec`` methods named in its
``COUNTED`` table; a name the library no longer defines makes ``--trace 1``
fail at install.  The tracer is read as source, so no bytecode is written
next to it."""

import types
from pathlib import Path

import ffmult
from ffmult import rs_decode as rs
from ffmult.ff import FieldSpec, field_make

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    module = types.ModuleType("perfbench_tracer")
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"), module.__dict__)
    return module


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
