// Fuzzes the HTTP parsing surface at both ends of the wire: request lines,
// status lines and header blocks (net::parse_header_block, the function
// every received block goes through), and the client's incremental
// net::ResponseReader. The whole input is treated as one header block whose
// first line is also fed to the line parsers, and then as one server
// response, read whole and split into reads at offsets derived from the
// input: every split must give the same response, or the same
// std::invalid_argument, and no split may take a byte past the body.

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "fuzz_input.hpp"
#include "net/http.hpp"
#include "util/strings.hpp"

namespace {

/// What reading the input as one server response gave.
struct ReadResult {
  std::string error;  ///< the std::invalid_argument's what(), if one
  bool head_done = false;
  bool done = false;
  std::size_t taken = 0;  ///< bytes the reader took, over all reads
  abr::net::HttpResponse response;

  bool operator==(const ReadResult& other) const {
    return error == other.error && head_done == other.head_done &&
           done == other.done && taken == other.taken &&
           response.status == other.response.status &&
           response.reason == other.response.reason &&
           response.headers.entries == other.response.headers.entries &&
           response.body == other.response.body;
  }
};

/// Feeds `wire` to a fresh reader in reads that end at `cuts` (ascending
/// offsets) and at the end of the input.
ReadResult read_split(std::string_view wire,
                      const std::vector<std::size_t>& cuts) {
  ReadResult result;
  abr::net::ResponseReader reader;
  std::size_t from = 0;
  try {
    for (std::size_t i = 0; i <= cuts.size(); ++i) {
      const std::size_t to = i < cuts.size() ? cuts[i] : wire.size();
      const std::string_view read = wire.substr(from, to - from);
      from = to;
      const std::size_t taken = reader.feed(read);
      ABR_FUZZ_REQUIRE(taken <= read.size());
      result.taken += taken;
    }
  } catch (const std::invalid_argument& error) {
    ReadResult failed;
    failed.error = error.what();
    return failed;
  }
  result.head_done = reader.head_done();
  result.done = reader.done();
  result.response = std::move(reader.response());
  if (result.done) {
    // Exactly the head, its blank line and Content-Length body bytes.
    const std::size_t blank = wire.find("\r\n\r\n");
    ABR_FUZZ_REQUIRE(blank != std::string_view::npos);
    ABR_FUZZ_REQUIRE(result.taken == blank + 4 + result.response.body.size());
  } else {
    // An unfinished response owns every byte it was given.
    ABR_FUZZ_REQUIRE(result.taken == wire.size());
  }
  return result;
}

/// FNV-1a: the random split is a pure function of the input bytes.
std::uint64_t hash_bytes(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
  }
  return h;
}

void check_response_reader(std::string_view wire) {
  const ReadResult whole = read_split(wire, {});

  // A read ends after every CR and LF: each line ending, the blank line
  // included, straddles reads.
  std::vector<std::size_t> at_line_ends;
  for (std::size_t i = 0; i + 1 < wire.size(); ++i) {
    if (wire[i] == '\r' || wire[i] == '\n') at_line_ends.push_back(i + 1);
  }
  ABR_FUZZ_REQUIRE(read_split(wire, at_line_ends) == whole);

  // Reads of seeded random lengths, from one byte to a few kilobytes.
  const std::uint64_t h = hash_bytes(wire);
  const std::uint64_t max_read = std::uint64_t{1} << (h % 13);
  std::uint64_t state = h;
  std::vector<std::size_t> random_cuts;
  for (std::size_t at = 0;;) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    at += 1 + static_cast<std::size_t>((state >> 33) % max_read);
    if (at >= wire.size()) break;
    random_cuts.push_back(at);
  }
  ABR_FUZZ_REQUIRE(read_split(wire, random_cuts) == whole);

  // One byte per read, on inputs small enough to afford it.
  if (wire.size() <= 4096) {
    std::vector<std::size_t> every_byte;
    for (std::size_t i = 1; i < wire.size(); ++i) every_byte.push_back(i);
    ABR_FUZZ_REQUIRE(read_split(wire, every_byte) == whole);
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const std::string block(reinterpret_cast<const char*>(data), size);

  // Header block: throws std::invalid_argument on malformed lines (the
  // expected control path); anything else is a bug.
  try {
    const abr::net::HttpHeaders headers =
        abr::net::parse_header_block(block, /*skip_lines=*/1);
    for (const auto& [key, value] : headers.entries) {
      // Every parsed name must be findable through the case-insensitive
      // lookup the server uses.
      ABR_FUZZ_REQUIRE(headers.find(key) != nullptr);
      // trim() already ran: no leading/trailing whitespace survives.
      ABR_FUZZ_REQUIRE(abr::util::trim(key) == key);
      ABR_FUZZ_REQUIRE(abr::util::trim(value) == value);
    }
  } catch (const std::invalid_argument&) {
  }

  // First line through both line parsers.
  const std::string_view line = abr::net::first_line_of(block);
  abr::net::HttpRequest request;
  if (abr::net::parse_request_line(line, request)) {
    ABR_FUZZ_REQUIRE(!request.method.empty());
    ABR_FUZZ_REQUIRE(!request.target.empty());
    ABR_FUZZ_REQUIRE(request.target.front() == '/');
  }
  abr::net::HttpResponse response;
  if (abr::net::parse_status_line(line, response)) {
    ABR_FUZZ_REQUIRE(response.status >= 100 && response.status <= 599);
  }

  check_response_reader(block);
  return 0;
}
