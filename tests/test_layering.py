"""The closed-form route stands apart from the simulated one.

The boundary terms are computed in closed form (specfun -> coeff -> geom)
and checked against heat content simulated and fitted with numpy
(profiles -> heat1d/regint -> asymfit).  The check means something only
while the closed-form modules load neither numpy nor the simulator, so a
fresh interpreter imports them and lists what came with them.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

_LIST_MODULES = """
import sys
import singularheat.specfun, singularheat.coeff, singularheat.geom
print(" ".join(sorted(name for name in sys.modules if name == "numpy"
                      or name.startswith(("numpy.", "singularheat.")))))
"""


def test_closed_form_route_loads_no_numpy_or_simulator():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", _LIST_MODULES], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.split() == ["singularheat.coeff", "singularheat.errors",
                           "singularheat.geom", "singularheat.specfun"]
