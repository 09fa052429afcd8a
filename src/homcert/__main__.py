"""``python -m homcert``: the command line, ended as the ``homcert``
script ends it (cli.entry), without the interpreter's shutdown
collections."""

import sys

from .cli import entry

sys.exit(entry())
