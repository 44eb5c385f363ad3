"""The process entry of ``qdicc``: ``python -m qdicc`` and the console script.

Importing numpy and the CLI leaves some 20k container objects that live
until the process exits.  With the cyclic garbage collector on, the imports
trigger a few dozen collections and the interpreter's exit scans that heap
once more, which costs about as long as a 50x50 sweep.  So the collector is
off while this module imports the CLI, and :func:`main` moves everything
imported into the permanent generation (``gc.freeze``) before it turns the
collector back on: the command's own garbage is still collected, the import
heap is never scanned again, and ``--threads`` workers fork from a frozen
parent, as ``gc.freeze`` documents.  ``import qdicc.cli`` and in-process
``cli.main`` calls leave the collector as they find it; only this entry
changes it.
"""
import gc

gc.disable()
from . import cli  # noqa: E402  (imported with the collector off)


def main() -> int:
    gc.freeze()
    gc.enable()
    return cli.main()


if __name__ == "__main__":
    raise SystemExit(main())
