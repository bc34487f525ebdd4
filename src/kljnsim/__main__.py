import gc
import sys

from .cli import main

if __name__ == "__main__":
    code = main()
    gc.freeze()  # exit then skips the collector's walk over every object the run made
    sys.exit(code)
