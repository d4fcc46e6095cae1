/**
 * @file
 * The wire-specific piece of the wire codecs (wire.cc, snapshot.cc)
 * and of the protocol's requests and responses: the document
 * envelope. The typed readers and the field-list codec they use are
 * common/codec.hh.
 *
 * This is an internal header: tools should speak through wire.hh /
 * snapshot.hh.
 */

#pragma once

#include "common/codec.hh"

namespace wg::serve::wire::detail {

/** {"wire":kSchemaVersion,"type":<type>} document skeleton. */
Json makeEnvelope(const char* type);

} // namespace wg::serve::wire::detail
