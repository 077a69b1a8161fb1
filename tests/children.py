"""The environment for a child Python process that imports this source tree."""

import os

import semhub


def source_env(**variables: str) -> dict[str, str]:
    """os.environ plus `variables`, with the directory holding `semhub` first
    on PYTHONPATH, so a child runs the source tree this suite imports,
    installed or not."""
    src_root = os.path.dirname(os.path.dirname(semhub.__file__))
    inherited = os.environ.get("PYTHONPATH")
    pythonpath = src_root + (os.pathsep + inherited if inherited else "")
    return dict(os.environ, PYTHONPATH=pythonpath, **variables)
