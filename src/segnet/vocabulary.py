"""The covariate names every layer shares, kept free of numpy.

``segnet.config`` validates run configurations against them without loading
the numeric layers; ``segnet.attributes`` builds its columns from them.
"""

__all__ = ["ATTRIBUTE_NAMES"]

ATTRIBUTE_NAMES = ("sex", "age", "religion", "caste", "education", "workflag", "savings")
