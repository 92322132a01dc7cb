"""Deliberately bad module: wires listeners beside the event spine.
Used as a fixture by the code-lint tests; it is never imported.
"""


class SideChannel:
    def attach(self, engine, observer, log, callback):
        engine.obs = observer
        engine.locks.observer = callback
        engine._wal = log
        engine.recorder = None
