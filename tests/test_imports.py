"""Every module imports on its own: the packages re-export nothing, so no
import order is forced on callers."""

import os
import pkgutil
import subprocess
import sys

import orchardrl

SRC = os.path.dirname(os.path.dirname(orchardrl.__file__))
MODULES = sorted(m.name for m in pkgutil.walk_packages(orchardrl.__path__, "orchardrl.")
                 if not m.ispkg)


def test_each_module_imports_in_a_fresh_interpreter():
    assert "orchardrl.cli" in MODULES and "orchardrl.agent.ppo" in MODULES
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))}
    procs = {name: subprocess.Popen([sys.executable, "-c", f"import {name}"], env=env,
                                    stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                                    text=True)
             for name in MODULES}
    output = {name: p.communicate()[0] for name, p in procs.items()}
    failed = {name: output[name] for name, p in procs.items() if p.returncode}
    assert not failed, failed
