/**
 * @file
 * Complete, canonical serialization of SimConfig plus a SHA-256
 * digest over it. The experiment subsystem (acp::exp) keys its result
 * cache on this digest, so *every* field must appear here — a
 * sizeof() tripwire in config_io.cc fires at compile time when a
 * field is added without updating the serializer, closing the "knob
 * silently missing from the cache key" hazard the old bench harness
 * had.
 */

#ifndef ACP_SIM_CONFIG_IO_HH
#define ACP_SIM_CONFIG_IO_HH

#include <string>

#include "sim/config.hh"

namespace acp::sim
{

/** Stable display token for an encryption mode ("counter" / "cbc"). */
const char *encryptionModeName(EncryptionMode mode);

/**
 * Canonical text form of @p cfg: a version line followed by one
 * "key=value" line per field, in declaration order, nested cache
 * geometries flattened as "l2.sizeBytes=..." etc. Enums are rendered
 * as their stable display names so the text survives enum reordering.
 */
std::string serializeConfig(const SimConfig &cfg);

} // namespace acp::sim

#endif // ACP_SIM_CONFIG_IO_HH
