"""The in-place build writes every module's bytecode, and that bytecode is
timestamp-checked: an edited source is recompiled, never served stale."""

import importlib.util
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_inplace_build_writes_current_bytecode(tmp_path):
    shutil.copy2(ROOT / "setup.py", tmp_path / "setup.py")
    shutil.copy2(ROOT / "pyproject.toml", tmp_path / "pyproject.toml")
    # copy2 keeps mtimes, so a built kernel stays up to date and is not rebuilt
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPATH", None)
    proc = subprocess.run([sys.executable, "setup.py", "-q", "build_ext", "--inplace"],
                          cwd=tmp_path, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr

    package = tmp_path / "src" / "picardkit"
    modules = sorted(package.rglob("*.py"))
    assert len(modules) > 10
    missing = [str(m.relative_to(package)) for m in modules
               if not Path(importlib.util.cache_from_source(str(m))).is_file()]
    assert missing == []

    # an edit that changes the size, so even an edit in the second of the
    # build is seen by the timestamp-and-size check
    upoly = package / "upoly.py"
    upoly.write_text(upoly.read_text() + "\nEDITED_AFTER_BUILD = 7\n")
    env["PYTHONPATH"] = str(tmp_path / "src")
    probe = "import picardkit.upoly as u; print(u.EDITED_AFTER_BUILD)"
    proc = subprocess.run([sys.executable, "-c", probe], cwd=tmp_path, env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "7"
