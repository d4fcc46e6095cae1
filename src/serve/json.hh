/**
 * @file
 * Forwarding header: the JSON DOM lives in common/json.hh. Kept so code
 * that spells it wg::serve::Json (the end-to-end benchmark under
 * perfbench/, directly and through serve/wire.hh) still builds.
 */

#pragma once

#include "common/json.hh"

namespace wg::serve {

using wg::Json;
using wg::JsonLimits;
using wg::jsonEscape;

} // namespace wg::serve
