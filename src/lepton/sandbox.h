// SECCOMP sandbox glue (§5.1).
//
// Production Lepton, before reading a single byte of untrusted input:
// allocates a zeroed 200-MiB region, pre-spawns its worker threads, sets up
// pipes, and then enters Linux secure computing mode, after which the
// kernel allows only read / write / exit / sigreturn — no open, no fork,
// no mmap. A compromised parser can then at worst corrupt its own output,
// which the round-trip gate rejects (§5.7).
//
// This repository reproduces the *architecture* portably (pre-spawned
// threads and reusable scratch: a CodecContext's pool and scratch,
// lepton/context.h, make no model-sized allocation after warm-up) and
// offers the real SECCOMP_MODE_STRICT entry here for Linux hosts. Because
// strict mode forbids nearly everything, it is exercised from a forked
// child in tests rather than wired into the library path.
#pragma once

namespace lepton::core {

// True if this platform can enter strict seccomp.
bool sandbox_supported();

// Enters SECCOMP_MODE_STRICT for the *calling process*. After this returns
// true, only read/write/exit/sigreturn are permitted; any other syscall
// kills the process. Returns false if unsupported/denied.
bool enter_strict_sandbox();

// Terminates the calling thread/process with the raw exit(2) syscall.
// Strict mode's allowlist contains exit but not exit_group, and libc's
// _exit()/quick_exit() issue exit_group — calling them inside the sandbox
// gets the process SIGKILLed instead of exiting with its status.
[[noreturn]] void sandbox_exit(int status);

}  // namespace lepton::core
