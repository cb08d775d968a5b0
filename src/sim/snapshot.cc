/**
 * @file
 * TwinBusSimulator checkpoint container (sim/snapshot.hh): the
 * cursor plus both buses' BusSimulator payloads (serialized by
 * fabric/bus_snapshot.cc). Field order here *is* the wire format:
 * change it and kSnapshotFormatVersion must bump.
 */

#include "sim/snapshot.hh"

#include <string>
#include <vector>

#include "fabric/bus_sim.hh"
#include "util/checkpoint.hh"

namespace nanobus {

Result<std::string>
encodeTwinSnapshot(const TwinBusSimulator &twin,
                   const SimCheckpoint &cursor)
{
    SnapshotWriter w;
    w.putU64(cursor.records);
    w.putU64(cursor.last_cycle);
    Status ia = twin.instructionBus().saveState(w);
    if (!ia.ok())
        return ia.error();
    Status da = twin.dataBus().saveState(w);
    if (!da.ok())
        return da.error();
    return w.buffer();
}

Status
decodeTwinSnapshot(const std::string &payload, TwinBusSimulator &twin,
                   SimCheckpoint &cursor)
{
    SnapshotReader r(payload);
    NANOBUS_SNAP_TRY(r.getU64(cursor.records));
    NANOBUS_SNAP_TRY(r.getU64(cursor.last_cycle));
    NANOBUS_SNAP_TRY(twin.instructionBus().restoreState(r));
    NANOBUS_SNAP_TRY(twin.dataBus().restoreState(r));
    if (!r.atEnd()) {
        return Status::failure(
            ErrorCode::ParseError,
            "decodeTwinSnapshot: " + std::to_string(r.remaining()) +
                " unexpected trailing bytes");
    }
    return Status();
}

Status
saveTwinCheckpoint(const std::string &path,
                   const TwinBusSimulator &twin,
                   const SimCheckpoint &cursor)
{
    Result<std::string> payload = encodeTwinSnapshot(twin, cursor);
    if (!payload.ok())
        return payload.error();
    return saveSnapshotFile(path, payload.value());
}

Result<SimCheckpoint>
loadTwinCheckpoint(const std::string &path, TwinBusSimulator &twin)
{
    Result<std::string> payload = loadSnapshotFile(path);
    if (!payload.ok())
        return payload.error();
    SimCheckpoint cursor;
    Status restored = decodeTwinSnapshot(payload.value(), twin, cursor);
    if (!restored.ok())
        return restored.error();
    return cursor;
}

} // namespace nanobus
