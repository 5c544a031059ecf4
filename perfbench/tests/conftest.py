"""Run the tests under the environment ``run.py`` measures in."""

import perfbench

perfbench.clean_environment()
