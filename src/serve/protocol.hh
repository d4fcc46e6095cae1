/**
 * @file
 * Request/response layer of the line-delimited JSON protocol.
 *
 * Every request and response is exactly one line of compact JSON with
 * a {"wire":1,"type":...} envelope. Requests (grammar in DESIGN.md
 * §15):
 *
 *   submit      {"wire":1,"type":"submit","priority":P?,"sweep":{...}}
 *   status      {"wire":1,"type":"status","id":"jN"?}
 *   result      {"wire":1,"type":"result","id":"jN"}
 *   cancel      {"wire":1,"type":"cancel","id":"jN"}
 *   stats       {"wire":1,"type":"stats"}
 *   drain       {"wire":1,"type":"drain"}
 *   subscribe   {"wire":1,"type":"subscribe","id":"jN"}
 *   unsubscribe {"wire":1,"type":"unsubscribe"}
 *
 * Responses are {"wire":1,"type":"response","request":R,"ok":B,...}
 * with request-specific payload members on success and "error" on
 * failure. Malformed input of any kind produces an error response,
 * never an abort and never a dropped connection.
 *
 * subscribe attaches the connection to a job's live frame stream
 * (grammar in stream.hh): after the ok response the server interleaves
 * pushed {"type":"frame",...} lines with any further responses, until
 * the stream's terminal result frame or an unsubscribe. At most one
 * subscription per connection.
 */

#pragma once

#include <memory>
#include <string>

#include "common/json.hh"
#include "serve/jobs.hh"

namespace wg::serve {

/** Per-connection protocol state (one subscription at most). */
struct ConnState
{
    std::shared_ptr<Subscription> sub; ///< live stream, or null
};

/** handleRequestLine() outcome. */
struct ProtocolResult
{
    std::string response; ///< one line of JSON (no trailing newline)
    bool drained = false; ///< request was a completed `drain`
};

/**
 * Execute one request line against @p jobs and build the response
 * line, updating @p conn for subscribe/unsubscribe. A `drain` request
 * blocks until the manager is idle, then reports drained=true so the
 * server can shut down.
 */
ProtocolResult handleRequestLine(JobManager& jobs, ConnState& conn,
                                 const std::string& line);

/** JobStatus -> JSON object (protocol member spellings). */
Json statusJson(const JobStatus& status);

/** Parse a status JSON object back (client side). */
bool parseStatusJson(const Json& j, JobStatus& out, std::string& error);

} // namespace wg::serve
