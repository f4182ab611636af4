"""The library's dependency rule: importing ``discerning_td`` loads the
standard library and numpy, and no other module.  scipy and the test tools
are installed beside it, so a stray import would otherwise go unseen."""

import os
import subprocess
import sys
from pathlib import Path

import discerning_td

PROBE = """
import sys
before = set(sys.modules)
import discerning_td
loaded = {name.partition(".")[0] for name in set(sys.modules) - before}
print(*sorted(loaded), sep="\\n")
"""


def test_import_loads_no_third_party_module_but_numpy():
    src = Path(discerning_td.__file__).resolve().parent.parent
    done = subprocess.run(
        [sys.executable, "-c", PROBE], capture_output=True, text=True,
        check=True, env={**os.environ, "PYTHONPATH": str(src)})
    loaded = set(done.stdout.split()) - set(sys.stdlib_module_names)
    assert loaded == {"discerning_td", "numpy"}
