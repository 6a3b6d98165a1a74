"""The model registry: every model name the harness and CLI accept, mapped to
the :class:`~mddkit.modelapi.ModelSpec` entry its family module defines."""

from . import lpm, sfm, var

MODELS = {**var.MODELS, **sfm.MODELS, **lpm.MODELS}
