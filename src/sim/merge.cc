#include "sim/merge.h"

#include <algorithm>
#include <cctype>
#include <istream>
#include <ostream>
#include <string>

#include "common/logging.h"

namespace cfva::sim {

namespace {

/** Byte range [first, last] of one shard's JSON rows. */
struct JsonBody
{
    std::streamoff first = 0;
    std::streamoff last = -1; //!< inclusive; last < first = empty

    bool empty() const { return last < first; }
};

/**
 * Locates the rows between a shard's array brackets in one
 * streaming pass (O(1) memory): the span from the first
 * non-newline after the opening '[' to the last non-newline
 * before the closing ']'.  Fatal when @p index's shard holds no
 * array.
 */
JsonBody
findJsonBody(std::istream &in, std::size_t index)
{
    JsonBody body;
    bool open = false, haveFirst = false;
    std::streamoff closeAt = -1;     // candidate frame-closing ']'
    std::streamoff lastContent = -1; // last row byte seen
    std::streamoff pos = 0;
    char c;
    while (in.get(c)) {
        if (!open) {
            open = c == '[';
        } else if (c == ']') {
            // Only the final ']' of the file closes the frame; a
            // superseded candidate was row content after all.
            if (closeAt >= 0)
                lastContent = std::max(lastContent, closeAt);
            closeAt = pos;
        } else if (c != '\n' && c != '\r') {
            if (closeAt >= 0) {
                lastContent = std::max(lastContent, closeAt);
                closeAt = -1; // that ']' was inside a row
            }
            if (!haveFirst) {
                body.first = pos;
                haveFirst = true;
            }
            lastContent = pos;
        }
        ++pos;
    }
    if (!open || closeAt < 0)
        cfva_fatal("shard ", index, " does not contain a JSON array");
    body.last = haveFirst ? lastContent : -1;
    if (!haveFirst)
        body.first = 0;
    return body;
}

/** Reads the first row line of @p body from the rewound stream. */
std::string
firstRowOf(std::istream &in, const JsonBody &body)
{
    in.clear();
    in.seekg(body.first);
    cfva_assert(static_cast<bool>(in),
                "shard stream is not seekable");
    std::string row;
    std::getline(in, row);
    // A single-row shard has no trailing newline inside the body;
    // trim anything getline read past it (the closing bracket).
    const std::streamoff span = body.last - body.first + 1;
    if (static_cast<std::streamoff>(row.size()) > span)
        row.resize(static_cast<std::size_t>(span));
    return row;
}

/**
 * The field-name sequence of one JSON row: every quoted string
 * immediately followed by ':'.  Quoted *values* (mapping labels,
 * port mixes, workload names) are skipped because they precede ','
 * or '}' instead.
 */
std::string
rowSchemaOf(const std::string &row)
{
    std::string schema;
    for (std::size_t i = 0; i < row.size(); ++i) {
        if (row[i] != '"')
            continue;
        const std::size_t end = row.find('"', i + 1);
        if (end == std::string::npos)
            break;
        std::size_t after = end + 1;
        while (after < row.size() && row[after] == ' ')
            ++after;
        if (after < row.size() && row[after] == ':') {
            if (!schema.empty())
                schema += ',';
            schema += row.substr(i + 1, end - i - 1);
        }
        i = end;
    }
    return schema;
}

/** Copies @p body of the rewound stream to @p out in chunks. */
void
copyRange(std::ostream &out, std::istream &in, const JsonBody &body)
{
    in.clear();
    in.seekg(body.first);
    cfva_assert(static_cast<bool>(in),
                "shard stream is not seekable");
    std::streamoff remaining = body.last - body.first + 1;
    char buf[1 << 16];
    while (remaining > 0) {
        const std::streamsize want = static_cast<std::streamsize>(
            std::min<std::streamoff>(remaining,
                                     sizeof(buf)));
        in.read(buf, want);
        const std::streamsize got = in.gcount();
        cfva_assert(got > 0, "shard stream shrank mid-merge");
        out.write(buf, got);
        remaining -= got;
    }
}

} // namespace

void
mergeCsv(std::ostream &out, const std::vector<std::istream *> &shards)
{
    cfva_assert(!shards.empty(), "nothing to merge");
    std::string header;
    bool haveHeader = false;
    for (std::size_t i = 0; i < shards.size(); ++i) {
        std::string line;
        if (!std::getline(*shards[i], line))
            cfva_fatal("shard ", i, " is empty (no CSV header)");
        if (!haveHeader) {
            header = line;
            haveHeader = true;
            out << header << "\n";
        } else if (line != header) {
            cfva_fatal("shard ", i, " CSV schema does not match "
                       "shard 0 — refusing to concatenate mixed "
                       "schemas.\n  shard 0 header: ", header,
                       "\n  shard ", i, " header: ", line,
                       "\nWere the shards produced by the same "
                       "cfva_sweep build from the same grid?");
        }
        while (std::getline(*shards[i], line))
            out << line << "\n";
    }
}

void
mergeJson(std::ostream &out,
          const std::vector<std::istream *> &shards)
{
    cfva_assert(!shards.empty(), "nothing to merge");
    out << "[";
    bool first = true;
    std::string schema;
    std::size_t schemaShard = 0;
    for (std::size_t i = 0; i < shards.size(); ++i) {
        // Streaming passes per shard — locate the rows, check the
        // first row's field-name schema against the earlier shards,
        // rewind, chunk-copy — so merge memory stays O(1) however
        // large a shard is (the sweep holds only the outcomes in
        // flight; the merge must not be the stage that buffers a
        // whole report).  The per-row indentation sits
        // inside the copied span, so the splice reproduces
        // writeJson's bytes.
        const JsonBody body = findJsonBody(*shards[i], i);
        if (body.empty())
            continue; // empty shard: "[]" contributes no rows
        const std::string rowSchema =
            rowSchemaOf(firstRowOf(*shards[i], body));
        if (schema.empty()) {
            schema = rowSchema;
            schemaShard = i;
        } else if (rowSchema != schema) {
            cfva_fatal("shard ", i, " JSON schema does not match "
                       "shard ", schemaShard, " — refusing to "
                       "splice mixed schemas.\n  shard ",
                       schemaShard, " fields: ", schema,
                       "\n  shard ", i, " fields: ", rowSchema,
                       "\nWere the shards produced by the same "
                       "cfva_sweep build from the same grid?");
        }
        out << (first ? "\n" : ",\n");
        copyRange(out, *shards[i], body);
        first = false;
    }
    out << "\n]\n";
}

} // namespace cfva::sim
