#include "obs/time_series.hh"

#include <ostream>

#include "common/json.hh"

namespace cmpcache
{

void
writeSampleSeriesJson(std::ostream &os, const SampleSeries &s,
                      unsigned indent)
{
    const std::string pad(indent, ' ');
    os << pad << "{\n";
    os << pad << "  \"sampleEvery\": " << s.interval << ",\n";
    os << pad << "  \"ticks\": [";
    for (std::size_t i = 0; i < s.ticks.size(); ++i)
        os << (i ? ", " : "") << s.ticks[i];
    os << "],\n";
    os << pad << "  \"series\": {";
    for (std::size_t c = 0; c < s.names.size(); ++c) {
        os << (c ? "," : "") << "\n";
        os << pad << "    \"" << jsonEscape(s.names[c]) << "\": [";
        for (std::size_t i = 0; i < s.values[c].size(); ++i)
            os << (i ? ", " : "") << jsonDouble(s.values[c][i]);
        os << "]";
    }
    if (!s.names.empty())
        os << "\n" << pad << "  ";
    os << "}\n";
    os << pad << "}";
}

} // namespace cmpcache
