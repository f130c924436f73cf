"""What a fresh interpreter loads and collects to run one subcommand.

Each test starts its own interpreter, because this one has long since
imported the whole package.
"""

import functools
import json
import os
import subprocess
import sys

import pytest

# Runs `python -m paramagloss.cli <argv>` through runpy; an exit hook,
# registered first and so run last, prints the loaded module names as the
# last line of stderr.
RUN_AND_LIST_MODULES = (
    "import atexit, json, runpy, sys\n"
    "atexit.register(lambda: print(json.dumps(sorted(sys.modules)), file=sys.stderr))\n"
    "sys.argv = ['paramag-loss', *sys.argv[1:]]\n"
    "runpy.run_module('paramagloss.cli', run_name='__main__', alter_sys=True)\n"
)


def _env():
    env = dict(os.environ)
    env.pop("PARAMAG_LOSS_DB", None)
    return env


def _python(code, *argv):
    return subprocess.run(
        [sys.executable, "-c", code, *argv],
        capture_output=True,
        text=True,
        env=_env(),
        timeout=120,
    )


@functools.cache
def numpy_loads_dataclasses():
    proc = _python("import sys, numpy; print('dataclasses' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    return proc.stdout == "True\n"


def assert_no_generated_records(modules):
    # The package's records are plain classes: a run loads dataclasses only
    # if numpy's own import does.
    assert "dataclasses" not in modules or numpy_loads_dataclasses()


# Per command: its argv, a module its chain must load, and the package
# modules it must leave unloaded.
CHAINS = {
    "tempcurve": (
        ["tempcurve", "--freq-ghz", "11.45", "--points", "3"], "lineshape",
        ["ensemble", "ladder", "spin", "emission", "linalg", "_kernels"],
    ),
    "emission": (["emission"], "emission", ["ensemble", "ladder", "spin", "lineshape"]),
    "sweep": (
        ["sweep", "--points", "11"], "ensemble", ["absorption", "emission", "linalg", "spin"],
    ),
    "point": (
        ["point", "--freq-ghz", "4.5"], "ensemble", ["absorption", "emission", "linalg", "spin"],
    ),
    "powercurve": (
        ["powercurve", "--freq-ghz", "9.0", "--points", "3"], "ensemble",
        ["absorption", "emission", "linalg", "spin"],
    ),
}


@pytest.mark.parametrize("command", sorted(CHAINS))
def test_each_command_imports_only_its_chain(command):
    argv, loaded, absent = CHAINS[command]
    proc = _python(RUN_AND_LIST_MODULES, *argv)
    assert proc.returncode == 0, proc.stderr
    modules = json.loads(proc.stderr.splitlines()[-1])
    assert f"paramagloss.{loaded}" in modules
    assert not {f"paramagloss.{name}" for name in absent} & set(modules)
    assert_no_generated_records(modules)


@pytest.mark.parametrize(
    "argv, code",
    [(["--help"], 0), (["sweep", "--help"], 0), (["point", "--freq-ghz", "nan"], 2)],
    ids=["help", "sweep-help", "rejected-flag"],
)
def test_argparse_ended_run_loads_no_numpy(argv, code):
    # A run that argparse ends, with help or a rejected flag, needs only the
    # flag parser: no numpy and no package module beyond cli (which runs as
    # __main__ here) and constants.
    proc = _python(RUN_AND_LIST_MODULES, *argv)
    assert proc.returncode == code, proc.stderr
    modules = json.loads(proc.stderr.splitlines()[-1])
    assert "numpy" not in modules
    package = {name for name in modules if name.split(".")[0] == "paramagloss"}
    assert package == {"paramagloss", "paramagloss.constants"}
    assert "dataclasses" not in modules


def test_package_exports_resolve_lazily():
    code = (
        "import paramagloss\n"
        "assert set(paramagloss.__all__) <= set(dir(paramagloss))\n"
        "try:\n"
        "    paramagloss.no_such_name\n"
        "except AttributeError as exc:\n"
        "    assert 'no_such_name' in str(exc)\n"
        "else:\n"
        "    raise AssertionError('no AttributeError')\n"
        "names = {}\n"
        "exec('from paramagloss import *', names)\n"
        "missing = [n for n in paramagloss.__all__ if n not in names]\n"
        "assert not missing, missing\n"
        "for name in paramagloss.__all__:\n"
        "    assert getattr(paramagloss, name) is names[name], name\n"
    )
    proc = _python(code)
    assert proc.returncode == 0, proc.stderr


def test_submodules_resolve_as_package_attributes():
    # Callers reach the package's modules without importing them first, as
    # the README's paramagloss.errors.InvalidInputs does.
    code = (
        "import paramagloss\n"
        "assert issubclass(paramagloss.errors.InvalidInputs, paramagloss.ParamagLossError)\n"
        "for name in ('_kernels', 'absorption', 'constants', 'emission', 'ensemble',\n"
        "             'ioformat', 'ladder', 'linalg', 'lineshape', 'spin'):\n"
        "    module = getattr(paramagloss, name)\n"
        "    assert module.__name__ == 'paramagloss.' + name, name\n"
    )
    proc = _python(code)
    assert proc.returncode == 0, proc.stderr


def test_no_collection_runs_inside_the_entry():
    # A collection counts when its caller's stack holds the run() of the
    # module that runpy executes as __main__; an exit hook reports.
    code = (
        "import atexit, gc, runpy, sys\n"
        "inside = []\n"
        "def hook(phase, info):\n"
        "    frame = sys._getframe(1) if phase == 'start' else None\n"
        "    while frame is not None:\n"
        "        code, name = frame.f_code.co_name, frame.f_globals.get('__name__')\n"
        "        if (code, name) == ('run', '__main__'):\n"
        "            inside.append(info['generation'])\n"
        "        frame = frame.f_back\n"
        "def report():\n"
        "    gc.callbacks.remove(hook)\n"
        "    print(inside, gc.isenabled(), file=sys.stderr)\n"
        "atexit.register(report)\n"
        "gc.callbacks.append(hook)\n"
        "sys.argv = ['paramag-loss', 'sweep', '--points', '2001', '--format', 'json']\n"
        "runpy.run_module('paramagloss.cli', run_name='__main__', alter_sys=True)\n"
    )
    proc = _python(code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == "[] False\n"
