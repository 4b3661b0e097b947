import runpy
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize("name", ["power_demo.py", "chars_demo.py"])
def test_demo_script_runs(name, capsys):
    runpy.run_path(str(SCRIPTS / name), run_name="__main__")
    out = capsys.readouterr().out
    assert out
    if name == "power_demo.py":
        assert "agrees: True" in out
        assert "agrees: False" not in out
