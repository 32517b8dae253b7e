import sys

from benchmarks.layers.run import main

sys.exit(main())
