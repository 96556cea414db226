"""What the package and each command import.  Every check runs in a fresh
interpreter, so the import order is the one the check sets up."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


def python(*args: str) -> subprocess.CompletedProcess:
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path))


def run_script(script: str):
    """The JSON value the script prints last."""
    done = python("-c", textwrap.dedent(script))
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("argv", [["--version"], ["--help"], ["ecvt"]],
                         ids=["version", "help", "usage-error"])
def test_front_end_alone_leaves_numpy_out(argv):
    done = python("-X", "importtime", "-m", "icctab", *argv)
    assert done.returncode == (2 if argv == ["ecvt"] else 0)
    # -X importtime writes one "import time: ... | <module>" line per import
    loaded = [line.rsplit("|", 1)[-1].strip() for line in done.stderr.splitlines()
              if line.startswith("import time:")]
    assert "icctab.cli" in loaded
    assert not [name for name in loaded if name.split(".")[0] == "numpy"]


def test_icc_command_leaves_statistics_fractions_and_scipy_out(tmp_path):
    # the F quantiles' start is closed form in math: computing the confidence
    # bounds costs no import
    from icctab import SynthSpec, degrade_random, generate, save_csv

    path = tmp_path / "synth.csv"
    table, _ = generate(SynthSpec(rows=30, cols=6, seed=1))
    save_csv(degrade_random(table, 0.1, rng=1), path)
    done = python("-X", "importtime", "-m", "icctab", "icc", "--input", str(path), "--zscore")
    assert done.returncode == 0, done.stderr
    assert "conf 0.999: " in done.stdout
    loaded = [line.rsplit("|", 1)[-1].strip() for line in done.stderr.splitlines()
              if line.startswith("import time:")]
    assert "icctab.special" in loaded
    assert not {name.split(".")[0] for name in loaded} & {"statistics", "fractions", "scipy"}


def test_ecvt_command_loads_only_its_kernels(tmp_path):
    path = tmp_path / "complete.csv"
    path.write_text("".join(f"{i},{i + 2},{2 * i},{i + 1},{i - 3},{3 * i}\n" for i in range(8)))
    code, loaded = run_script(f"""
        import contextlib, io, json, sys
        from icctab.cli import main
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(["ecvt", "--input", {str(path)!r}, "--resamples", "20"])
        print(json.dumps([code, sorted(sys.modules)]))
    """)
    assert code == 0
    assert {"icctab.ecvt", "icctab.anova", "icctab.table"} <= set(loaded)
    assert not {"icctab.fit", "icctab.impute", "icctab.synth"} & set(loaded)


def test_impute_command_loads_neither_fit_nor_ecvt(tmp_path):
    path = tmp_path / "degraded.csv"
    # two missing cells in every third row, so the fills are random
    path.write_text("".join(f"{i},{i + 2},{'' if i % 3 else 2 * i},{i - 3},{'' if i % 3 else i}\n"
                            for i in range(9)))
    code, loaded = run_script(f"""
        import contextlib, io, json, sys
        from icctab.cli import main
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(["impute", "--input", {str(path)!r},
                         "--output", {str(tmp_path / "imputed.csv")!r}])
        print(json.dumps([code, sorted(sys.modules)]))
    """)
    assert code == 0
    assert {"icctab.impute", "icctab.anova", "icctab.table"} <= set(loaded)
    assert not {"icctab.fit", "icctab.ecvt"} & set(loaded)


@pytest.mark.parametrize("first", ["import icctab.fit", "import icctab.ecvt",
                                   "import icctab.anova", "from icctab import anova, ecvt"])
def test_function_names_shared_with_submodules_stay_functions(first):
    names = run_script(f"""
        import json, sys, types
        {first}
        import icctab.ecvt, icctab.anova, icctab.fit
        from icctab import anova, ecvt
        import icctab
        print(json.dumps([
            [f.__module__, f.__name__, callable(f) and not isinstance(f, types.ModuleType)]
            for f in (anova, ecvt, icctab.anova, icctab.ecvt)
        ] + [type(sys.modules[m]).__name__ for m in ("icctab.anova", "icctab.ecvt")]))
    """)
    assert names == [["icctab.anova", "anova", True], ["icctab.ecvt", "ecvt", True]] * 2 + [
        "module", "module"]


def test_every_export_resolves_lazily():
    loaded, missing, star, listed = run_script("""
        import json, sys
        import icctab
        loaded = sorted(m for m in sys.modules if m.startswith("icctab."))
        missing = [name for name in icctab.__all__ if getattr(icctab, name, None) is None]
        star = {}
        exec("from icctab import *", star)
        print(json.dumps([loaded, missing, sorted(set(star) - {"__builtins__"}),
                          sorted(set(icctab.__all__) - set(dir(icctab)))]))
    """)
    import icctab

    assert loaded == [] and missing == [] and listed == []
    assert star == sorted(icctab.__all__)
    assert "signed_power" not in icctab.__all__
    with pytest.raises(AttributeError):
        icctab.signed_power  # noqa: B018


def test_every_submodule_export_is_a_package_export():
    # each module's __all__ is its row of _EXPORTS and binds exactly those
    # names on a star import; no other module exports a name
    rows, unlisted = run_script("""
        import importlib, json, pkgutil
        import icctab
        rows, unlisted = {}, {}
        for info in pkgutil.iter_modules(icctab.__path__):
            if info.name == "__main__":  # importing it runs the command line
                continue
            module = importlib.import_module(f"icctab.{info.name}")
            if info.name in icctab._EXPORTS:
                star = {}
                exec(f"from icctab.{info.name} import *", star)
                rows[info.name] = [module.__all__, sorted(set(star) - {"__builtins__"})]
            elif hasattr(module, "__all__"):
                unlisted[info.name] = module.__all__
        print(json.dumps([rows, unlisted]))
    """)
    from icctab import _EXPORTS

    assert rows == {module: [names.split(), sorted(names.split())]
                    for module, names in _EXPORTS.items()}
    assert unlisted == {}
