#include "sim/cli.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>

#include "common/logging.h"

namespace cfva::sim {

std::vector<std::string>
splitFlagList(const std::string &flag, const std::string &arg,
              bool allowDuplicates)
{
    if (arg.empty())
        cfva_fatal(flag, " list is empty");
    // getline never yields the item after a trailing separator, so
    // "a," would silently parse as "a" without this check.
    if (arg.back() == ',')
        cfva_fatal(flag, " has a trailing comma (empty item): ",
                   arg);
    std::vector<std::string> parts;
    std::stringstream ss(arg);
    std::string item;
    while (std::getline(ss, item, ',')) {
        if (item.empty())
            cfva_fatal(flag, " has an empty item (doubled or "
                       "leading comma): ", arg);
        if (!allowDuplicates
            && std::find(parts.begin(), parts.end(), item)
                   != parts.end()) {
            cfva_fatal(flag, " repeats '", item, "': ", arg);
        }
        parts.push_back(item);
    }
    return parts;
}

namespace {

std::int64_t
parseMultiplier(const std::string &flag, const std::string &item)
{
    try {
        std::size_t used = 0;
        const std::int64_t v = std::stoll(item, &used);
        if (used != item.size() || item.empty())
            throw std::invalid_argument(item);
        return v;
    } catch (const std::exception &) {
        cfva_fatal("bad ", flag, " multiplier: ", item);
    }
}

} // namespace

std::vector<PortMix>
parsePortMixFlag(const std::string &flag, const std::string &arg)
{
    std::vector<PortMix> mixes;
    if (arg.empty())
        cfva_fatal(flag, " list is empty");
    if (arg.back() == '/')
        cfva_fatal("trailing '/' leaves an empty ", flag,
                   " group in: ", arg);
    std::stringstream groups(arg);
    std::string group;
    while (std::getline(groups, group, '/')) {
        if (group.empty())
            cfva_fatal("empty ", flag, " group in: ", arg);
        PortMix mix;
        // Within a group duplicates are meaningful traffic.
        for (const auto &part :
             splitFlagList(flag, group, /*allowDuplicates=*/true)) {
            const std::int64_t m = parseMultiplier(flag, part);
            if (m == 0)
                cfva_fatal(flag, " multiplier 0 is not a vector "
                           "access");
            if (m > PortMix::kMaxMultiplier
                || m < -PortMix::kMaxMultiplier)
                cfva_fatal(flag, " multiplier out of range (|m| <= ",
                           PortMix::kMaxMultiplier, "): ", m);
            mix.multipliers.push_back(m);
        }
        for (std::size_t i = 0; i < mixes.size(); ++i) {
            if (mixes[i] == mix)
                cfva_fatal(flag, " repeats mix '", group,
                           "' (same as group ", i + 1, "): ", arg);
        }
        mixes.push_back(std::move(mix));
    }
    if (mixes.empty())
        cfva_fatal(flag, " list is empty");
    return mixes;
}

namespace {

/** @p p made absolute, with symlinks and dot segments resolved as
 *  far as the file system allows. */
std::filesystem::path
resolved(const std::string &p)
{
    std::error_code ec;
    std::filesystem::path r = std::filesystem::absolute(p, ec);
    if (!ec)
        r = std::filesystem::weakly_canonical(r, ec);
    return ec ? std::filesystem::path(p).lexically_normal() : r;
}

} // namespace

bool
sameFile(const std::string &a, const std::string &b)
{
    namespace fs = std::filesystem;
    if (a == "-" || b == "-")
        return a == b;
    std::error_code ec;
    if (fs::is_character_file(a, ec) || fs::is_character_file(b, ec))
        return false;
    if (fs::exists(a, ec) && fs::exists(b, ec))
        return fs::equivalent(a, b, ec);
    return resolved(a) == resolved(b);
}

std::ostream &
openOutput(const std::string &path, std::ofstream &file)
{
    if (path == "-")
        return std::cout;
    file.open(path, std::ios::binary);
    if (!file)
        cfva_fatal("cannot open ", path, " for writing");
    return file;
}

void
closeOutput(const std::string &path, std::ofstream &file)
{
    bool ok = true;
    if (path == "-") {
        ok = static_cast<bool>(std::cout.flush());
    } else {
        file.close();
        ok = !file.fail();
    }
    if (!ok)
        cfva_fatal("writing ", path, " failed; the output is "
                   "incomplete");
}

} // namespace cfva::sim
