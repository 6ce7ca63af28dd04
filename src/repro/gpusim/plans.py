# Kept only because benchmarks/e2e/layertrace.py reads PLAN_ROUTES by name.
from repro.gpusim.gpu import LAUNCH_ROUTES as PLAN_ROUTES  # noqa: F401
