"""Run one napsphere CLI call and report where its time went.

Usage: ``python cli_child.py ARGV...`` with ``napsphere`` importable.  It
behaves like ``python -m napsphere.cli ARGV...`` (same stdin, stdout and
exit code) and, as its last line of standard error, prints
``CLI_CHILD {"import": [t0, t1], "main": [t1, t2]}`` with
``time.perf_counter`` timestamps around ``import napsphere.cli`` and
``napsphere.cli.main(argv)``.
"""

import json
import sys
import time

t0 = time.perf_counter()
import napsphere.cli  # noqa: E402

t1 = time.perf_counter()
code = napsphere.cli.main(sys.argv[1:])
sys.stdout.flush()
t2 = time.perf_counter()
print("CLI_CHILD " + json.dumps({"import": [t0, t1], "main": [t1, t2]}), file=sys.stderr)
sys.exit(code)
