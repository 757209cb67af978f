"""What a process pays and changes before any work: ``import paulicloner``
loads no numpy and leaves the environment alone, the CLI loads no
``dataclasses``, ``logging`` or ``json`` and runs OpenBLAS on one thread
unless told otherwise.  Each case runs in a fresh interpreter that gets no
BLAS thread variable unless the case passes one."""

import pytest
from fresh_process import run_python

import paulicloner
from paulicloner import cloner

PRINT_THREADS = "print(os.environ.get('OPENBLAS_NUM_THREADS'), os.environ.get('OMP_NUM_THREADS'))"


def test_package_import_loads_no_numpy_and_leaves_the_environment():
    code = (
        "import os, sys\n"
        "before = dict(os.environ)\n"
        "import paulicloner\n"
        "print('numpy' in sys.modules, dict(os.environ) == before)\n"
    )
    assert run_python("-c", code).split() == ["False", "True"]


def test_cli_import_loads_no_dataclasses():
    # nor logging and json, which load where a command first uses them
    code = (
        "import sys, paulicloner.cli\n"
        "print(sorted({'dataclasses', 'logging', 'json'} & set(sys.modules)))"
    )
    assert run_python("-c", code).strip() == "[]"


@pytest.mark.parametrize(
    "argv",
    [["validate", "--trials", "20"], ["sweep", "--task", "b92", "--f", "0.75:0.8:0.05"]],
    ids=["validate", "b92"],
)
def test_commands_without_a_warning_load_no_logging(argv):
    code = (
        "import contextlib, io, sys\n"
        "from paulicloner.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main({argv!r}) == 0\n"
        "print('logging' in sys.modules)"
    )
    assert run_python("-c", code).strip() == "False"


def test_cli_runs_openblas_on_one_thread_by_default():
    code = f"import os, paulicloner.cli\n{PRINT_THREADS}"
    assert run_python("-c", code).split() == ["1", "None"]


@pytest.mark.parametrize(
    "variable", ["OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"]
)
def test_cli_keeps_a_thread_count_the_user_set(variable):
    code = f"import os, paulicloner.cli\n{PRINT_THREADS}\nprint(os.environ['{variable}'])"
    openblas, omp, mine = run_python("-c", code, **{variable: "2"}).split()
    assert mine == "2"
    assert openblas == ("2" if variable == "OPENBLAS_NUM_THREADS" else "None")
    assert omp == ("2" if variable == "OMP_NUM_THREADS" else "None")


def test_cli_sets_nothing_when_numpy_came_first():
    code = f"import os, numpy, paulicloner.cli\n{PRINT_THREADS}"
    assert run_python("-c", code).split() == ["None", "None"]


def test_python_dash_m_takes_the_same_path():
    # runpy.run_module with alter_sys is how ``python -m paulicloner`` runs
    # __main__; the environment is read after the command has run
    code = (
        "import os, runpy, sys\n"
        "sys.argv = ['paulicloner', 'table', '--n', '1']\n"
        "try:\n"
        "    runpy.run_module('paulicloner', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exc:\n"
        "    print('exit', exc.code)\n"
        f"{PRINT_THREADS}"
    )
    out = run_python("-c", code).splitlines()
    assert out[-2:] == ["exit 0", "1 None"]
    assert out[1].startswith("X")  # the table's first row


def test_exports_resolve_from_their_module_at_each_access(monkeypatch):
    assert paulicloner.clone_fidelities is cloner.clone_fidelities
    monkeypatch.setattr(cloner, "clone_fidelities", "replaced")
    assert paulicloner.clone_fidelities == "replaced"
    for name in paulicloner.__all__:
        assert getattr(paulicloner, name) is not None
    assert set(paulicloner.__all__) <= set(dir(paulicloner))
    with pytest.raises(AttributeError, match="no attribute 'partial_trace'"):
        paulicloner.partial_trace
