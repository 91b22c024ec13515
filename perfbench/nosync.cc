// fsync/fdatasync interposer for the benchmark's processes (LD_PRELOAD).
//
// The benchmark keeps its store inside its own checkout, on whatever disk
// that is, but measures the flush policy of a RAM-backed directory: every
// group commit still calls fsync, and fsync costs what it costs on tmpfs —
// one system call that flushes nothing. A shared disk's fsync latency
// drifts with other tenants' I/O (commit throughput moved 3x within an
// hour on the reference host), which would swamp any change to tyder.
//
// fcntl(F_GETFD) is the stand-in system call: it keeps fsync's EBADF
// answer for a descriptor that is not open.

#include <fcntl.h>

extern "C" int fsync(int fd) { return fcntl(fd, F_GETFD) == -1 ? -1 : 0; }

extern "C" int fdatasync(int fd) { return fsync(fd); }
