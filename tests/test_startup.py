"""What a fresh interpreter loads and collects to run one subcommand.

Each command imports only its chain (CHAINS), the package's names and
modules resolve lazily, and no collection runs inside cli.run.  The
benchmark's tracer relies on three more rules, checked here: each name of
cli._MODULE_OF imports only its own module's chain, a wrapper bound on
cli before a run is what the command calls, and every lazy name a command
reads (found by dis in its nested code and cli's helpers) belongs to
errors, ioformat or the chain its subparser names.

Each test that watches imports or binding starts its own interpreter,
because this one has long since imported the whole package; the check of
the names each command reads needs only cli's code and runs here.
"""

import argparse
import builtins
import dis
import functools
import inspect
import json
import os
import subprocess
import sys

import pytest

from paramagloss import cli

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
        ["ensemble", "ladder", "spin", "emission", "_kernels"],
    ),
    "emission": (["emission"], "emission", ["ensemble", "ladder", "spin", "lineshape"]),
    "sweep": (
        ["sweep", "--points", "11"], "ensemble", ["absorption", "emission", "spin"],
    ),
    "point": (
        ["point", "--freq-ghz", "4.5"], "ensemble", ["absorption", "emission", "spin"],
    ),
    "powercurve": (
        ["powercurve", "--freq-ghz", "9.0", "--points", "3"], "ensemble",
        ["absorption", "emission", "spin"],
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
        "             'ioformat', 'ladder', 'lineshape', 'spin'):\n"
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


# cli's lazy names, which a benchmark tracer may also wrap on cli: the
# module cli binds each one from, and the modules every command binds from.
MODULE_OF = cli._MODULE_OF
SHARED = ("errors", "ioformat")

# Prints, as JSON, the package modules that the lines run after
# `import paramagloss.cli` in a fresh interpreter import.
LOADED_AFTER_CLI = (
    "import json, sys\n"
    "import paramagloss.cli as cli\n"
    "before = set(sys.modules)\n"
    "{}\n"
    "loaded = set(sys.modules) - before\n"
    "print(json.dumps(sorted(m for m in loaded if m.split('.')[0] == 'paramagloss')))\n"
)


def _loaded_after_cli(lines):
    proc = _python(LOADED_AFTER_CLI.format(lines))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@functools.cache
def _chain_of(module):
    return _loaded_after_cli(f"import paramagloss.{module}")


@pytest.mark.parametrize("name", sorted(MODULE_OF))
def test_each_lazy_name_imports_only_its_module(name):
    module = MODULE_OF[name]
    lookup = (
        f"value = cli.{name}\n"
        "import importlib\n"
        f"assert value is getattr(importlib.import_module('paramagloss.{module}'), {name!r})\n"
        f"assert vars(cli)[{name!r}] is value"
    )
    assert _loaded_after_cli(lookup) == _chain_of(module)


# Binds a recording wrapper on cli for each lazy function before the first
# run, as the tracer does, then runs each command and prints, per command,
# the wrapped names it called.
RUN_WRAPPED = (
    "import inspect, json, os, sys\n"
    "from paramagloss import cli\n"
    "called, wrappers = [], {}\n"
    "def wrap(name, fn):\n"
    "    def wrapper(*args, **kwargs):\n"
    "        called.append(name)\n"
    "        return fn(*args, **kwargs)\n"
    "    return wrapper\n"
    "for name in cli._MODULE_OF:\n"
    "    if inspect.isfunction(getattr(cli, name)):\n"
    "        wrappers[name] = wrap(name, getattr(cli, name))\n"
    "        setattr(cli, name, wrappers[name])\n"
    "report = {}\n"
    "for argv in json.loads(sys.argv[1]):\n"
    "    called.clear()\n"
    "    assert cli.main([*argv, '--output', os.devnull]) == 0, argv\n"
    "    report[argv[0]] = sorted(set(called))\n"
    "assert all(getattr(cli, name) is fn for name, fn in wrappers.items())\n"
    "print(json.dumps(report))\n"
)


def test_wrappers_bound_before_a_run_are_what_each_command_calls():
    runs = [
        ["sweep", "--points", "3"],
        ["point", "--freq-ghz", "4.5", "--format", "json"],
        ["emission"],
        ["tempcurve", "--freq-ghz", "11.45", "--points", "3"],
        ["powercurve", "--freq-ghz", "9.0", "--points", "3"],
    ]
    proc = _python(RUN_WRAPPED, json.dumps(runs))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {
        "sweep": ["default_db_path", "load_species_db", "sweep", "write_csv"],
        "point": ["database_loss", "default_db_path", "load_species_db", "write_json"],
        "emission": [
            "default_emission_path", "extraction_rows", "read_emission_table", "write_csv",
        ],
        "tempcurve": ["evaluate", "tanh_factor", "temperature_factor", "write_csv"],
        "powercurve": [
            "default_db_path", "evaluate", "load_species_db", "species_loss", "write_csv",
        ],
    }


def _globals_read(fn):
    """The global names fn reads, also in its nested code and in cli's helpers it calls."""
    names, seen, stack = set(), set(), [fn.__code__]
    while stack:
        code = stack.pop()
        if code in seen:
            continue
        seen.add(code)
        for ins in dis.get_instructions(code):
            if ins.opname == "LOAD_GLOBAL":
                names.add(ins.argval)
                helper = vars(cli).get(ins.argval)
                if inspect.isfunction(helper) and helper.__module__ == cli.__name__:
                    stack.append(helper.__code__)
        stack += [const for const in code.co_consts if inspect.iscode(const)]
    return names


def _subparsers():
    parser = cli.build_parser()
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


@pytest.mark.parametrize("command", sorted(_subparsers()))
def test_each_command_reads_only_names_its_chain_binds(command):
    # main binds the lazy names of errors, ioformat and the module the
    # subparser names; any other name a command reads must be bound when
    # cli is imported, or be a builtin.
    sub = _subparsers()[command]
    chain = sub.get_default("chain")
    assert chain in set(MODULE_OF.values()) - set(SHARED)
    assert all(action.dest != "chain" for action in sub._actions)
    eager = set(vars(cli)) - set(MODULE_OF)
    for name in _globals_read(sub.get_default("run")):
        if name in MODULE_OF:
            assert MODULE_OF[name] in (*SHARED, chain), (name, MODULE_OF[name])
        else:
            assert name in eager or hasattr(builtins, name), name
