"""mixsweep: planner and analyzer for low-resource-language LLM pretraining sweeps.

Enumerates a factor-parametrized grid of training setups, derives concrete
training plans and token-mixture schedules, ingests measured validation
losses, and fits the models used to recommend setups for a given compute
and corpus budget.
"""

__version__ = "0.1.0"
