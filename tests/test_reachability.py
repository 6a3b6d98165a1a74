"""The library is what a run reaches.

One sweep runs the command line in this process on every model: ``synth``,
``fit-vb``, ``sample`` (reading the written CSV through ``--data``),
``estimate`` (through ``--config``) and a two-repetition ``experiment``,
with every estimator and every output format. ``sys.setprofile`` records
each code object under ``src/mddkit`` that the sweep enters. Every ``def``
in the package, nested ones included, must be entered or be on ``ALLOWED``
with the reason no run reaches it; an ``ALLOWED`` entry that is entered, or
names no ``def``, fails as well.
"""

import ast
import sys
from pathlib import Path

import pytest

import mddkit
from mddkit import harness
from mddkit.cli import main as cli_main
from mddkit.models import MODELS

PACKAGE = Path(mddkit.__file__).parent

# "module:qualified name" -> why no run of the command line enters it
ALLOWED = {
    # defaults that every model family overrides
    "modelapi:ModelKernel.log_likelihood_batch": "abstract: every kernel overrides it",
    "modelapi:ModelKernel.full_conditional":
        "refuses a block without a conditional; every kernel overrides it",
    "modelapi:ModelKernel.posterior_sampler": "abstract: every kernel overrides it",
    "modelapi:ModelKernel.vb_fit": "refuses a kernel without a fit; every kernel overrides it",
    "modelapi:GibbsKernel.gibbs_start": "abstract: every Gibbs kernel overrides it",
    # a convenience the README documents
    "modelapi:GibbsKernel.posterior_sampler":
        "one chain of posterior_chains, the README's library sketch; runs draw stacks",
    # a branch no default data set takes
    "statscore:_tail_normal":
        "draws a zero-truncated normal whose truncation point lies over 5 scales above "
        "its location",
    # waiting for a caller (ROADMAP: the gamma frontier integrates u out; a
    # spectral-variance column in the report)
    "diagnostics:spectral_density_zero": "no report computes the spectral NSE yet",
    "sfm:sfm_gamma_integrated_loglik": "the gamma frontier's kernel still keeps u",
    "sfm:make_sfm_gamma_cdl_weighting":
        "the gamma frontier has no complete-data route while its kernel keeps u",
    "statscore:quadrature_1d":
        "the tests' 1-d oracle integrals; the benchmark's tracer attaches to it",
    "statscore:quadrature_1d.<locals>.log_terms": "part of quadrature_1d",
    "statscore:ln_parabolic_cylinder_d":
        "ln D_-nu(z) of sfm_gamma_integrated_loglik; the benchmark's tracer attaches to it",
    "statscore:ln_parabolic_cylinder_d.<locals>.log_integrand":
        "part of ln_parabolic_cylinder_d",
}


def _defs(path: Path):
    """(qualified name, the lines its code object may start on) of every def."""
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                # a decorated function's code starts at its first decorator
                lines = {child.lineno} | {d.lineno for d in child.decorator_list}
                found.append((name, lines))
                visit(child, name + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".")
            else:
                visit(child, prefix)

    visit(ast.parse(path.read_text()), "")
    return found


def _sweep(root: Path) -> set:
    """(file, first line, name) of every package code object the sweep enters."""
    estimators = ",".join(harness.ESTIMATORS)
    chain = ["--draws", "300", "--burn-in", "50"]
    runs = []
    for model in MODELS:
        out = root / model
        conf = root / f"{model}.conf"
        conf.write_text(f"model = {model}\nestimators = {estimators}\n"
                        f"draws = 300\nburn_in = 50\nsynth.seed = 2\n")
        runs += [
            ["synth", "--model", model, "--out", str(out)],
            ["fit-vb", "--model", model, "--out", str(out)],
            ["sample", "--model", model, "--data", str(out / "synthetic.csv"), *chain,
             "--out", str(out)],
            ["estimate", "--config", str(conf), "--format", "csv,json,svg",
             "--out", str(out / "estimate")],
            ["experiment", "--model", model, "--reps", "2", "--estimators", estimators, *chain,
             "--format", "csv,json,svg", "--out", str(out / "experiment")],
        ]
    # a cached function whose result an earlier caller left would not be entered
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("mddkit"):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()
    entered = set()
    prefix = str(PACKAGE)

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if code.co_filename.startswith(prefix):
                entered.add((code.co_filename, code.co_firstlineno, code.co_name))

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        for argv in runs:
            assert cli_main(argv) in (0, 1), argv
    finally:
        sys.setprofile(previous)
    return entered


@pytest.fixture(scope="module")
def reach(tmp_path_factory):
    entered = _sweep(tmp_path_factory.mktemp("sweep"))
    reached, unreached = set(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        for name, lines in _defs(path):
            key = f"{path.stem}:{name}"
            short = name.rsplit(".", 1)[-1]
            hit = any((str(path), line, short) in entered for line in lines)
            (reached if hit else unreached).add(key)
    return reached, unreached


def test_every_def_is_reached_or_allowed(reach):
    _, unreached = reach
    assert sorted(unreached - set(ALLOWED)) == []


def test_allowed_defs_exist_and_stay_unreached(reach):
    reached, unreached = reach
    assert sorted(set(ALLOWED) - unreached) == [], \
        "allowed but reached (or no such def): drop the entry"
