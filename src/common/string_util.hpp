/**
 * @file
 * Small string helpers used across the library (GCC 12 lacks std::format).
 */
#pragma once

#include <sstream>
#include <string>
#include <vector>

namespace mm {

/** Concatenate all arguments with operator<< into a single string. */
template <typename... Args>
std::string
strCat(const Args &...args)
{
    std::ostringstream oss;
    (oss << ... << args);
    return oss.str();
}

/** Join the elements of @p items with @p sep. */
template <typename T>
std::string
join(const std::vector<T> &items, const std::string &sep)
{
    std::ostringstream oss;
    for (size_t i = 0; i < items.size(); ++i) {
        if (i > 0)
            oss << sep;
        oss << items[i];
    }
    return oss.str();
}

/**
 * Split @p text on @p sep. Empty pieces (leading/trailing/doubled
 * separators) are preserved so callers can reject them explicitly; an
 * empty input yields no pieces.
 */
std::vector<std::string> split(const std::string &text, char sep);

/** Format a double with @p digits significant digits. */
std::string fmtDouble(double value, int digits = 4);

/** Format a double as hexfloat, which round-trips it exactly (cache
 * and store identities must not merge nearby values). */
std::string exactDouble(double value);

} // namespace mm
