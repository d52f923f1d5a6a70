"""The node relation read straight off the two channels: a test oracle.

:func:`repro.model.node_model.node_step` is the composition of
``node_observation`` (what a step reads of the channels) and
``node_step_observed``.  That split is only sound if the observation keeps
everything the relation depends on, which the product code cannot check
against itself.  This module transcribes the paper's Section 4.3
constraints once more, reading the channel contents directly, so tests
can compare the split relation with it cell by cell.
"""

from repro.model.coupler_model import KIND_C_STATE, KIND_COLD_START
from repro.model.node_model import (
    ST_ACTIVE,
    ST_AWAIT,
    ST_COLD_START,
    ST_FREEZE,
    ST_FREEZE_CLIQUE,
    ST_INIT,
    ST_LISTEN,
    ST_PASSIVE,
    ST_TEST,
    NodeLocal,
)


def _local(state, slot=0, big_bang=False, timeout=0, agreed=0, failed=0):
    return NodeLocal(state, slot, big_bang, timeout, agreed, failed)


def reference_node_step(config, node_id, local, channels):
    """All allowed next local states, computed from the raw channels."""
    state = local.state
    host = config.full_host_choices
    if state == ST_FREEZE:
        extra = [_local(ST_AWAIT), _local(ST_TEST)] if host else []
        return [local, _local(ST_INIT)] + extra
    if state in (ST_FREEZE_CLIQUE, ST_AWAIT, ST_TEST):
        return [local]
    if state == ST_INIT:
        listen = _local(ST_LISTEN, timeout=config.listen_timeout(node_id))
        return [local, listen] + ([_local(ST_FREEZE)] if host else [])
    if state == ST_LISTEN:
        return _reference_listen(config, node_id, local, channels)
    return _reference_slotted(config, node_id, local, channels)


def _reference_listen(config, node_id, local, channels):
    targets = []
    for content in channels:
        integrates = content.kind == KIND_C_STATE or (
            content.kind == KIND_COLD_START
            and (local.big_bang or not config.big_bang_enabled))
        if content.frame_id and integrates and content.frame_id not in targets:
            targets.append(content.frame_id)
    if targets:
        return [_local(ST_PASSIVE, slot=1 if target == config.slots else target + 1)
                for target in targets]
    traffic = any(content.kind == KIND_COLD_START for content in channels)
    timeout = config.listen_timeout(node_id) if traffic else max(0, local.timeout - 1)
    if timeout == 0 and not traffic:
        return [_local(ST_COLD_START, slot=node_id)]
    return [_local(ST_LISTEN, big_bang=local.big_bang or traffic, timeout=timeout)]


def _reference_slotted(config, node_id, local, channels):
    cap = config.counter_cap
    agreed, failed = local.agreed, local.failed
    judged = [content.frame_id for content in channels
              if content.kind == KIND_C_STATE and content.frame_id != 0]
    if local.slot == node_id and local.state in (ST_COLD_START, ST_ACTIVE):
        agreed = min(cap, agreed + 1)
    elif local.slot in judged:
        agreed = min(cap, agreed + 1)
    elif judged:
        failed = min(cap, failed + 1)
    slot = 1 if local.slot >= config.slots else local.slot + 1
    host = config.full_host_choices
    if slot != node_id:  # mid-round: counters carry over
        if local.state == ST_ACTIVE and host:
            return [_local(ST_ACTIVE, slot, agreed=agreed, failed=failed),
                    _local(ST_FREEZE),
                    _local(ST_PASSIVE, slot, agreed=agreed, failed=failed)]
        return [_local(local.state, slot, agreed=agreed, failed=failed)]
    # Round test at the node's own slot.
    if local.state == ST_COLD_START:
        if agreed <= 1 and failed == 0:
            return [_local(ST_COLD_START, slot)]
        if agreed > failed:
            return [_local(ST_ACTIVE, slot)]
        return [_local(ST_LISTEN, timeout=config.listen_timeout(node_id))]
    if agreed > failed or (local.state == ST_PASSIVE and agreed + failed == 0):
        stay = [_local(ST_ACTIVE, slot)]
        return stay + ([_local(ST_FREEZE)] if host and local.state == ST_ACTIVE
                       else [])
    return [_local(ST_FREEZE_CLIQUE)]
