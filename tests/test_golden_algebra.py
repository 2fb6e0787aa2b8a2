"""Golden renderings of the exact algebra.

The data file pins the printed and JSON form of every expression below:
term order, coefficient rendering and the random case generator's output.
It was recorded before the algebra core moved to integer coefficients and
integer-keyed signals, and must not change with them.

Regenerate (only for a deliberate change of output) with
``PYTHONPATH=src python tests/test_golden_algebra.py``.
"""

import contextlib
import io
import json
import random
import tempfile
from pathlib import Path

from jetmech.cli import main
from jetmech.dsl import PRESETS, format_expr
from jetmech.formcalc import decompose
from jetmech.spencer import dual_spencer
from jetmech.verify import random_vertical_form

DATA = Path(__file__).parent / "data" / "golden_algebra.json"

RANDOM_CASES = 40

COMMANDS = (("decompose",), ("decompose", "--mode", "declared"), ("derive",))

# a polynomial signal with fractional coefficients, which no preset has
POLY_SIGNAL = """\
system "driven" {
  parameter m = 2
  parameter k = 3/2
  coordinate x
  coordinate y
  signal w = polynomial(1/2, -1/4, 1/8)
  force x: -k*x + x*y^2/3 + sig(w)*y
  force y: -k*y + x^2*y/3 - t*sig(w)/5
  momentum x: m*x' + y*x'/2
  momentum y: m*y'
  init x = 1, x' = 0, y = 0, y' = 1
  time 0 .. 1 step 1e-2
}
"""


def _cli_renderings(tmp: Path) -> dict:
    out = {}
    driven = tmp / "driven.mech"
    driven.write_text(POLY_SIGNAL, encoding="utf-8")
    targets = {**{name: name for name in PRESETS}, "driven": str(driven)}
    json_path = tmp / "report.json"
    for name, target in targets.items():
        for command in COMMANDS:
            json_path.unlink(missing_ok=True)
            code, stdout = _run([*command, target, "--json", str(json_path)])
            # the CLI creates the report file before any work, so it exists
            # (empty) after a failure too
            out[f"{' '.join(command)} {name}"] = {
                "exit": code,
                "stdout": stdout.replace(str(json_path), "<json>"),
                "json": json_path.read_text(encoding="utf-8"),
            }
    return out


def _run(argv) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def _random_renderings() -> list:
    cases = []
    for seed in range(RANDOM_CASES):
        rng = random.Random(seed)
        n = rng.randint(1, 3)
        phi = random_vertical_form(rng, n, with_signal=True)
        dec = decompose(phi)
        cases.append(
            {
                "seed": seed,
                "phi": [format_expr(e) for e in (*phi.F, *phi.Pi)],
                "L": format_expr(dec.lagrangian),
                "phi_a": [format_expr(e) for e in (*dec.anti_exact.F, *dec.anti_exact.Pi)],
                "residuals": [format_expr(r) for r in dual_spencer(phi).residuals],
            }
        )
    return cases


def render_all(tmp: Path) -> dict:
    return {"cli": _cli_renderings(tmp), "random": _random_renderings()}


def test_cli_renderings_match_golden(tmp_path):
    golden = json.loads(DATA.read_text(encoding="utf-8"))
    assert _cli_renderings(tmp_path) == golden["cli"]


def test_random_renderings_match_golden():
    golden = json.loads(DATA.read_text(encoding="utf-8"))
    assert _random_renderings() == golden["random"]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        payload = render_all(Path(tmp))
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8")
