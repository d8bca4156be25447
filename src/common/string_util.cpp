#include "common/string_util.hpp"

#include <iomanip>

namespace mm {

std::vector<std::string>
split(const std::string &text, char sep)
{
    std::vector<std::string> out;
    if (text.empty())
        return out;
    size_t pos = 0;
    while (true) {
        size_t end = text.find(sep, pos);
        if (end == std::string::npos) {
            out.push_back(text.substr(pos));
            return out;
        }
        out.push_back(text.substr(pos, end - pos));
        pos = end + 1;
    }
}

std::string
fmtDouble(double value, int digits)
{
    std::ostringstream oss;
    oss << std::setprecision(digits) << value;
    return oss.str();
}

std::string
exactDouble(double value)
{
    std::ostringstream oss;
    oss << std::hexfloat << value;
    return oss.str();
}

} // namespace mm
