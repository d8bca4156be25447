#include "common/mapped_file.hpp"

#include <cerrno>
#include <utility>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include "common/fault_injection.hpp"

namespace mm {

namespace {

void
setErrno(int *errnoOut, int value)
{
    if (errnoOut != nullptr)
        *errnoOut = value;
}

} // namespace

MappedFile::~MappedFile()
{
    release();
}

void
MappedFile::release()
{
    if (data_ != nullptr)
        ::munmap(const_cast<char *>(data_), size_);
    data_ = nullptr;
    size_ = 0;
}

MappedFile::MappedFile(MappedFile &&other) noexcept
    : data_(std::exchange(other.data_, nullptr)),
      size_(std::exchange(other.size_, 0))
{
}

MappedFile &
MappedFile::operator=(MappedFile &&other) noexcept
{
    if (this != &other) {
        release();
        data_ = std::exchange(other.data_, nullptr);
        size_ = std::exchange(other.size_, 0);
    }
    return *this;
}

std::optional<MappedFile>
MappedFile::open(const std::string &path, int *errnoOut)
{
    setErrno(errnoOut, 0);
    if (FaultInjector::armed()) {
        const int injected = FaultInjector::instance().onRead(path);
        if (injected != 0) {
            setErrno(errnoOut, injected);
            return std::nullopt;
        }
    }
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) {
        setErrno(errnoOut, errno);
        return std::nullopt; // missing or unreadable
    }
    MappedFile mf;
    int err = 0;
    struct stat st{};
    if (::fstat(fd, &st) != 0) {
        err = errno;
    } else if (!S_ISREG(st.st_mode)) {
        err = S_ISDIR(st.st_mode) ? EISDIR : ENOTSUP;
    } else if (st.st_size > 0) { // an empty file is a valid empty view
        void *addr = ::mmap(nullptr, size_t(st.st_size), PROT_READ,
                            MAP_PRIVATE, fd, 0);
        if (addr == MAP_FAILED) {
            err = errno;
        } else {
            mf.data_ = static_cast<const char *>(addr);
            mf.size_ = size_t(st.st_size);
        }
    }
    ::close(fd);
    if (err != 0) {
        setErrno(errnoOut, err);
        return std::nullopt;
    }
    return mf;
}

} // namespace mm
