from ._front import entrypoint

entrypoint()
