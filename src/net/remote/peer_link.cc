#include "net/remote/peer_link.hh"

#include <string>
#include <unistd.h>

namespace firesim
{

const char *
transportKindName(TransportKind kind)
{
    switch (kind) {
      case TransportKind::Auto:
        return "auto";
      case TransportKind::Shm:
        return "shm";
      case TransportKind::Tcp:
        return "tcp";
      case TransportKind::Unix:
        return "unix";
    }
    return "?";
}

bool
parseTransportKind(const char *text, TransportKind &out)
{
    if (!text)
        return false;
    std::string s = text;
    if (s == "auto")
        out = TransportKind::Auto;
    else if (s == "shm")
        out = TransportKind::Shm;
    else if (s == "tcp")
        out = TransportKind::Tcp;
    else
        return false;
    return true;
}

uint64_t
localHostToken()
{
    char name[256] = {0};
    ::gethostname(name, sizeof(name) - 1);
    uint64_t h = 1469598103934665603ULL; // FNV-1a
    for (const char *p = name; *p; ++p) {
        h ^= static_cast<uint8_t>(*p);
        h *= 1099511628211ULL;
    }
    return h;
}

} // namespace firesim
