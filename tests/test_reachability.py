"""The library is what a run reaches.

One sweep runs the command line in this process on every model: ``synth``,
``fit-vb``, ``sample`` (reading the written CSV through ``--data``),
``estimate`` (through ``--config``) and a two-repetition ``experiment``,
with every estimator and every output format; one more config sets the
config keys the others leave at their defaults. ``sys.setprofile`` records
each code object under ``src/mddkit`` that the sweep enters. Every ``def``
in the package, nested ones included, must be entered or be on ``ALLOWED``
with the reason no run reaches it; an ``ALLOWED`` entry that is entered, or
names no ``def``, fails as well.

The profile hook also reads the arguments of each entered ``def`` with
keyword defaults: a parameter that no call sets to a value other than its
default must be on ``ALLOWED_DEFAULTS`` with the reason, and an entry there
that some call does set, or names no such parameter, fails.
"""

import ast
import inspect
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

# "module:qualified name(parameter)" of an entered def -> why every call of
# the command line leaves the parameter at its default
ALLOWED_DEFAULTS = {
    "harness:run_experiment(progress)":
        "the benchmark passes a progress callback; the command line reports none",
    "statscore:_refine(whole_batch)": "set only by quadrature_1d, which ALLOWED lists",
}


def _defs(path: Path):
    """(qualified name, the lines its code object may start on, its parameters
    with keyword defaults) of every def."""
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                # a decorated function's code starts at its first decorator
                lines = {child.lineno} | {d.lineno for d in child.decorator_list}
                args = child.args
                positional = args.posonlyargs + args.args
                defaulted = [a.arg for a in positional[len(positional) - len(args.defaults):]]
                defaulted += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults)
                              if d is not None]
                found.append((name, lines, defaulted))
                visit(child, name + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".")
            else:
                visit(child, prefix)

    visit(ast.parse(path.read_text()), "")
    return found


def _default_values() -> dict:
    """Code object -> {parameter: default} of every package function and method
    with keyword defaults. A nested def's defaults are made when it runs, so
    they are not here, and none of its parameters counts as set."""
    out = {}
    for module in list(sys.modules.values()):
        if not getattr(module, "__name__", "").startswith("mddkit"):
            continue
        for value in vars(module).values():
            for member in vars(value).values() if isinstance(value, type) else [value]:
                # staticmethod and classmethod, property, cached_property, functools.cache
                fn = inspect.unwrap(next((getattr(member, a) for a in ("__func__", "fget", "func")
                                          if getattr(member, a, None) is not None), member))
                code = getattr(fn, "__code__", None)
                if code is None or not code.co_filename.startswith(str(PACKAGE)):
                    continue
                params = {name: p.default for name, p in inspect.signature(fn).parameters.items()
                          if p.default is not p.empty}
                if params:
                    out[code] = params
    return out


def _is_default(value, default) -> bool:
    if value is default:
        return True
    try:
        return bool(value == default)
    except ValueError:  # an array against a scalar or another array
        return False


def _sweep(root: Path):
    """(file, first line, name) of every package code object the sweep enters,
    and (file, first line, name, parameter) of every keyword default some call
    set to another value."""
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
    # the config keys left at their defaults above, each set off it: a cost
    # frontier, simulated and read from the CSV written above
    conf = root / "off-defaults.conf"
    conf.write_text("model = sfm-exponential\nestimators = ris-pmd, bs-vb, is-vb\n"
                    "draws = 100\nburn_in = 20\nthin = 2\nweighting_draws = 200\n"
                    "is_draws = 400\npmd_components = 64\noptions.sign = cost\n")
    out = root / "off-defaults"
    runs += [
        ["experiment", "--config", str(conf), "--reps", "1", "--out", str(out)],
        ["sample", "--config", str(conf), "--data", str(root / "sfm-exponential" / "synthetic.csv"),
         "--out", str(out)],
    ]
    # a cached function whose result an earlier caller left would not be entered
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("mddkit"):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()
    entered, varied = set(), set()
    prefix = str(PACKAGE)
    # the defaults no call has set yet, by code object; a code object leaves
    # once every one is set, so that later calls cost no argument reads
    pending = _default_values()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if code.co_filename.startswith(prefix):
                where = (code.co_filename, code.co_firstlineno, code.co_name)
                entered.add(where)
                if code in pending:
                    args, defaults = frame.f_locals, pending[code]
                    for name in [n for n, d in defaults.items() if not _is_default(args[n], d)]:
                        varied.add(where + (name,))
                        del defaults[name]
                    if not defaults:
                        del pending[code]

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        for argv in runs:
            assert cli_main(argv) in (0, 1), argv
    finally:
        sys.setprofile(previous)
    return entered, varied


@pytest.fixture(scope="module")
def reach(tmp_path_factory):
    """The reached and the unreached defs, and the parameters of reached defs
    that every call left at their default."""
    entered, varied = _sweep(tmp_path_factory.mktemp("sweep"))
    reached, unreached, unvaried = set(), set(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        for name, lines, defaulted in _defs(path):
            key = f"{path.stem}:{name}"
            short = name.rsplit(".", 1)[-1]
            hit = any((str(path), line, short) in entered for line in lines)
            (reached if hit else unreached).add(key)
            if hit:
                unvaried |= {f"{key}({param})" for param in defaulted
                             if not any((str(path), line, short, param) in varied
                                        for line in lines)}
    return reached, unreached, unvaried


def test_every_def_is_reached_or_allowed(reach):
    _, unreached, _ = reach
    assert sorted(unreached - set(ALLOWED)) == []


def test_allowed_defs_exist_and_stay_unreached(reach):
    _, unreached, _ = reach
    assert sorted(set(ALLOWED) - unreached) == [], \
        "allowed but reached (or no such def): drop the entry"


def test_every_keyword_default_is_set_by_some_call_or_allowed(reach):
    *_, unvaried = reach
    assert sorted(unvaried - set(ALLOWED_DEFAULTS)) == [], \
        "no call sets these: make each a module constant, or allow it with the reason"


def test_allowed_defaults_exist_and_stay_at_their_default(reach):
    *_, unvaried = reach
    assert sorted(set(ALLOWED_DEFAULTS) - unvaried) == [], \
        "allowed but set by some call (or no such parameter): drop the entry"
