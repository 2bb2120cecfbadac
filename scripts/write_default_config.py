#!/usr/bin/env python3
"""Write the default configuration as JSON.

Handy as a starting point for edited configs:

    python3 scripts/write_default_config.py > myconfig.json
    gpsimlab plan --config myconfig.json
"""

import argparse
import json
import sys

from gpsimlab.config import DEFAULTS, config_to_dict


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "path",
        nargs="?",
        default=None,
        help="output file (default: stdout)",
    )
    args = parser.parse_args()
    text = json.dumps(config_to_dict(DEFAULTS), indent=2, sort_keys=True)
    if args.path is None:
        print(text)
    else:
        with open(args.path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        print(f"wrote {args.path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
