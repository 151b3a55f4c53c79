"""Run the CLI as ``python -m picardkit <command>``, like the ``picardkit`` script."""

from picardkit.cli import run

run()
