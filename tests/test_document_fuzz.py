"""Document fuzz: small documents with extreme floats in every numeric field,
run through the CLI's ``oracle``, ``estimate`` and ``attend``.

Every run must end in exit 0 with a strict-JSON report, or in exit 2 or 3
with a message that names what was refused; no run may raise a warning or
end in a traceback (exit 4), and a run that ends in exit 0 writes nothing to
stderr.
"""

import contextlib
import io
import json
import re
import tempfile
import warnings
from dataclasses import fields as dataclass_fields
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from coalattn import cli
from coalattn.estimators import MAX_SAMPLE_COUNT, MODES
from coalattn.games import NONLINEARITIES
from coalattn.inputs import RunConfig
from coalattn.pipeline import NORMALIZATIONS

# the largest finite magnitudes, a square root of the largest, a subnormal
# and both zeros
_EXTREMES = (1e308, -1e308, 1e154, -1e154, 1e-310, -1e-310, 0.0, -0.0)
_NUMBERS = st.one_of(st.sampled_from(_EXTREMES), st.floats(-4.0, 4.0))
_TEMPERATURES = st.one_of(
    st.sampled_from((1e-310, 1e-300, 1e-154, 1e154, 1e300, 1e308)), st.floats(1e-3, 10.0)
)
_TOLERANCES = st.one_of(st.sampled_from((1e-310, 1e-300, 1e308)), st.floats(1e-12, 1.0))
_DAMPINGS = st.one_of(st.sampled_from((0.0, 1e-310, 0.999999)), st.floats(0.0, 1.0, exclude_max=True))
# small counts run; the three past the bound must be refused before any allocation
_SAMPLE_COUNTS = st.sampled_from((*range(1, 9), MAX_SAMPLE_COUNT + 1, 2**62, 10**30))

# what a refusal may name: a document key, a config key, the document itself
# or the single head ("head.gate_weights")
_NAMES = {
    "document", "head", "n", "d", "embeddings", "characteristic_table", "fields", "couplings",
    "value_projection", "gate_weights", "gate_bias", "multi_head",
} | {field.name for field in dataclass_fields(RunConfig)}


def _matrix(draw, rows: int, cols: int) -> list:
    return [[draw(_NUMBERS) for _ in range(cols)] for _ in range(rows)]


def _head(draw, d: int, d_v: int) -> dict:
    return {
        "value_projection": _matrix(draw, d, d_v),
        "gate_weights": [draw(_NUMBERS) for _ in range(d)],
        "gate_bias": draw(_NUMBERS),
    }


@st.composite
def _documents(draw):
    """(document, config): a game from embeddings or a table, or none, an
    optional spin system, one head, several heads or none, and an optional
    nonlinearity."""
    n, d, d_v = draw(st.integers(1, 8)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    doc = {"schema_version": 1, "n": n}
    if draw(st.booleans()):
        doc["nonlinearity"] = draw(st.sampled_from(NONLINEARITIES))
    game = draw(st.sampled_from(("embeddings", "table", None)))
    if game == "embeddings":
        doc["embeddings"] = _matrix(draw, n, d)
        heads = draw(st.integers(0, 2)) if draw(st.booleans()) else 1
        if heads == 1:
            doc.update(_head(draw, d, d_v))
        elif heads:
            doc["multi_head"] = {
                "heads": [_head(draw, d, d_v) for _ in range(heads)],
                "output_projection": _matrix(draw, heads * d_v, d),
            }
    elif game == "table":
        doc["characteristic_table"] = [0.0] + [draw(_NUMBERS) for _ in range((1 << n) - 1)]
    if game is None or draw(st.booleans()):
        doc["fields"] = [draw(_NUMBERS) for _ in range(n)]
        couplings = np.zeros((n, n))
        for i in range(n):
            for j in range(i):
                couplings[i, j] = couplings[j, i] = draw(_NUMBERS)
        doc["couplings"] = couplings.tolist()
    cfg = {
        "coalition_gamma": draw(_TEMPERATURES),
        "spin_gamma": draw(_TEMPERATURES),
        "sample_count": draw(_SAMPLE_COUNTS),
        "max_iterations": draw(st.integers(1, 30)),
        "tolerance": draw(_TOLERANCES),
        "damping": draw(_DAMPINGS),
        "seed": draw(st.integers(0, 2**64 - 1)),
        "mode": draw(st.sampled_from(MODES)),
        "normalization": draw(st.sampled_from(NORMALIZATIONS)),
    }
    return doc, cfg


def _reject_constant(name):
    raise ValueError(f"report holds {name}")


@settings(max_examples=300, deadline=None)
@given(_documents())
def test_every_document_gets_a_report_or_a_named_refusal(case):
    doc, cfg = case
    with tempfile.TemporaryDirectory() as tmp:
        doc_path, cfg_path, out = (Path(tmp) / name for name in ("doc.json", "cfg.json", "out.json"))
        doc_path.write_text(json.dumps(doc))
        cfg_path.write_text(json.dumps(cfg))
        for command in ("oracle", "estimate", "attend"):
            out.unlink(missing_ok=True)
            err = io.StringIO()
            with warnings.catch_warnings(), contextlib.redirect_stderr(err):
                warnings.simplefilter("error")
                code = cli.main([command, "--input", str(doc_path), "--config", str(cfg_path), "--out", str(out)])
            message = err.getvalue()
            assert code in (cli.EXIT_OK, cli.EXIT_INPUT, cli.EXIT_LIMIT), (command, message)
            if code == cli.EXIT_OK:
                assert message == "", (command, message)
                json.loads(out.read_text(), parse_constant=_reject_constant)
                continue
            refusal = re.search(r"^(?:input error|limit refusal): ([^:]+):", message, re.MULTILINE)
            assert refusal is not None, (command, message)
            if code == cli.EXIT_INPUT:
                named = {re.split(r"[.\[]", name)[0] for name in refusal.group(1).split(", ")}
                assert named <= _NAMES, (command, message)
