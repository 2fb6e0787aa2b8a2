"""The cases each randomized verify suite draws, pinned by digest.

A suite names its seed in the report, not the forms it drew, so the
report's digest cannot see a change in how cases are drawn. Here each suite
runs as ``verify`` runs it, with the calls that receive its drawn cases
recording them on the way through: the cochain suite's forms (``decompose``),
the Euler-Lagrange suite's Lagrangians and their ``n``
(``variational_derivative``), the split suite's ``(phi, L)`` pairs
(``assemble_with_split``) and the first-variation suite's fields
(``_fixed_boundary_variation``). The rendering of every case, and the state
each case's generator is left in, go into one sha256 per suite and seed.

Beyond those seeds, ``random_expr`` and ``random_vertical_form`` are
compared with the generators they replace (``reference_ops``), which draw
through ``randint``, ``choice`` and ``random``: over every argument the
suites pass, each draw must give the same terms and coefficient types and
leave the generator in the same state.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from types import SimpleNamespace

import pytest

from jetmech import verify
from jetmech.formcalc import format_one_form
from jetmech.symexpr import format_expr
from reference_ops import reference_random_expr, reference_random_vertical_form


class _Recording(random.Random):
    """A Random that keeps every instance, to read its state afterwards."""

    made: list = []

    def __init__(self, seed):
        super().__init__(seed)
        _Recording.made.append(self)


def _form(phi) -> str:
    return f"n={phi.n}: " + " ; ".join(format_expr(e) for e in (*phi.F, *phi.Pi))


def _recorder(monkeypatch, lines: list, name: str, render):
    real = getattr(verify, name)

    def recorded(*args, **kwargs):
        result = real(*args, **kwargs)
        lines.append(render(result, *args, **kwargs))
        return result

    monkeypatch.setattr(verify, name, recorded)


RECORDERS = {
    "cochain": (
        verify.check_cochain_contraction,
        "decompose",
        lambda dec, phi: _form(phi),
    ),
    "el": (
        verify.check_el_equivalence,
        "variational_derivative",
        lambda _, lagrangian, n: f"n={n}: {format_expr(lagrangian)}",
    ),
    "split": (
        verify.check_split_invariance,
        "assemble_with_split",
        lambda _, dec, phi: f"{format_one_form(phi)} | L = {format_expr(dec.lagrangian)}",
    ),
    "variation": (
        verify.check_first_variation,
        "_fixed_boundary_variation",
        lambda field, rng, a, b, envelope: (
            f"[{a}, {b}]: {format_expr(field.exprs[0])}"
        ),
    ),
}

# sha256 of the drawn cases and the generators' final states
DRAWN_SHA256 = {
    ("cochain", 7): "b7c27f13a13a034efe054df137a4b4688e2c5f0e643f05a480b0608353a96aaa",
    ("cochain", 31): "a7323c70752c4d3b8ee88082274c7a52e6eaa37360f331116fcf8e7e001e9d23",
    ("cochain", 12345): "fa8716980d743393796aae981b27d87db54598da811e3ae7735cea7c70eb1fcb",
    ("el", 7): "018a2499389bff43fbf09047feb364dcaa5044297beace712f6e6d43cad0154c",
    ("el", 31): "8bd6f785a4a020f2096db21f64b5830c1eb8b37d549066f8e60fdb1f79b74df2",
    ("el", 12345): "e2cddf953f1edf8d52999d7fea696cc4ce2498e1f53d44fc4cf458a06ab6d012",
    ("split", 7): "cc3801ace02c759010b5c4ece8f096e7e626a185244b0ff84c16b16f93be936a",
    ("split", 31): "5ddbc0b4be4a456c4772d011ad32f8312483ca3782f40318387a5efd033025e3",
    ("split", 12345): "9ef2a264129374b29fde6134285ecb9a573bb787edd4b36de3dbdbc32519e51c",
    ("variation", 7): "59a70b4e2b16376476bf020f8f500c8142277748a5289355678c449404319ab5",
    ("variation", 31): "077740474585ae62bdc399098764bece7376d2c54fe0f1a8fe5f61cbd8eeaa99",
    ("variation", 12345): "8d40c48b38da339f01ea911fdc990c9107a3925b9cca10074c38685eb907ed18",
}


def drawn_digest(monkeypatch, suite: str, seed: int) -> str:
    check, name, render = RECORDERS[suite]
    lines: list = []
    _Recording.made = []
    _recorder(monkeypatch, lines, name, render)
    monkeypatch.setattr(verify, "random", SimpleNamespace(Random=_Recording))
    result = check(seed)
    assert result.passed, result
    assert len(lines) == len(_Recording.made)  # one generator per case
    lines += [repr(rng.getstate()) for rng in _Recording.made]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


@pytest.mark.parametrize("suite, seed", sorted(DRAWN_SHA256))
def test_suites_draw_the_pinned_cases(monkeypatch, suite, seed):
    assert drawn_digest(monkeypatch, suite, seed) == DRAWN_SHA256[suite, seed]


def _typed(e) -> tuple:
    return tuple((mono, c.__class__, c) for mono, c in e.terms)


# every (n, max_degree, max_terms, with_time, with_signal) the suites pass
EXPR_ARGUMENTS = list(itertools.product((1, 2, 3), range(5), (3, 4), (False, True), (False, True)))
STREAM_SEEDS = 1000


def test_random_expr_draws_the_reference_stream():
    # one stream per seed runs through every argument combination, so each
    # combination draws from STREAM_SEEDS different generator states; a draw
    # that took one word more or less than its reference would leave every
    # later state shifted, so the state is compared once per stream
    for seed in range(STREAM_SEEDS):
        rng, ref = random.Random(seed), random.Random(seed)
        for n, max_degree, max_terms, with_time, with_signal in EXPR_ARGUMENTS:
            got = verify.random_expr(rng, n, max_degree, max_terms, with_time, with_signal)
            want = reference_random_expr(ref, n, max_degree, max_terms, with_time, with_signal)
            assert _typed(got) == _typed(want), (seed, n, max_degree, max_terms)
        assert rng.getstate() == ref.getstate(), seed


class _FewWords(random.Random):
    """A generator that raises instead of drawing a 1,001st word, so a draw
    that never falls below its bound fails instead of spinning."""

    words = 0

    def getrandbits(self, k):
        self.words += 1
        if self.words > 1000:
            raise RuntimeError("drew 1,000 words")
        return super().getrandbits(k)


@pytest.mark.parametrize("max_degree, max_terms", [(4, 0), (-1, 4), (-1, 0)])
def test_random_expr_refuses_an_empty_bound(max_degree, max_terms):
    # randint(1, 0) and randint(0, -1) have no value to draw; a draw below a
    # bound of 0 would never end
    with pytest.raises(ValueError, match="empty range"):
        reference_random_expr(random.Random(1), 1, max_degree, max_terms)
    with pytest.raises(ValueError, match="max_terms >= 1 and max_degree >= 0"):
        verify.random_expr(_FewWords(1), 1, max_degree, max_terms)


def test_random_vertical_form_draws_the_reference_stream():
    for seed in range(STREAM_SEEDS):
        rng, ref = random.Random(seed), random.Random(seed)
        for n, with_time, with_signal in itertools.product((1, 2, 3), (False, True), (False, True)):
            got = verify.random_vertical_form(rng, n, with_time, with_signal)
            want = reference_random_vertical_form(ref, n, with_time, with_signal)
            assert got.n == want.n == n
            for a, b in zip((*got.F, *got.Pi), (*want.F, *want.Pi)):
                assert _typed(a) == _typed(b), (seed, n, with_time, with_signal)
            assert rng.getstate() == ref.getstate(), seed
