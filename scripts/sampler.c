// A host-time sampling profiler small enough to read in one sitting, for
// machines without `perf`. Preloaded into a process (`LD_PRELOAD`), it
// takes a SIGPROF sample every PERIOD_US microseconds of CPU time (the
// kernel's timer tick caps the real rate, 250 Hz on a common
// configuration): the interrupted program counter, then the return
// address of every frame found by following the frame-pointer chain. At
// exit it writes SAMPLER_OUT.<pid>: the process's memory map, then one
// line of hexadecimal addresses per sample, innermost first.
// scripts/host_profile.sh builds it, runs it and symbolizes the result.
//
// The walk needs frame pointers (`-C force-frame-pointers=yes`). Code
// built without them (the precompiled standard library, libc) can leave
// the chain early or, rarely, follow a stale one: the innermost address
// is always right, outer frames are best effort. Every frame is read
// through process_vm_readv, which fails instead of faulting on an
// unreadable address, so a bad chain ends the walk, never the process.
// The walk also ends at a zero frame pointer, which is how a coroutine's
// first frame (shims/coro) and the main thread's `_start` both end.
//
// A sample interrupted outside the executable's code (libc: its copies
// and allocator) seldom has a usable chain at all. For those, the first
// word within SCAN_WORDS of the stack pointer that points into the
// executable's code is recorded as the second frame, ahead of the walk:
// past a leaf such as `memmove` that is the return address into its
// caller; past a function that saved registers first it is usually still
// the return address, but a stale code address left on the stack can
// stand in for it. Best effort, like every outer frame.
//
//   gcc -O2 -shared -fPIC -o sampler.so scripts/sampler.c

#define _GNU_SOURCE
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>
#include <sys/uio.h>
#include <link.h>
#include <ucontext.h>
#include <unistd.h>

enum {
    PERIOD_US = 1000,
    MAX_DEPTH = 96,
    // Address words kept: a sample is its length plus its addresses.
    CAPACITY = 1 << 22,
    // A frame above the interrupted stack pointer by more than this is not
    // on the same stack (coroutine stacks are 1 MiB, the main one 8 MiB).
    STACK_SPAN = 8 << 20,
    // Stack words searched for a return address into the executable when
    // a sample lands outside it.
    SCAN_WORDS = 32,
};

static uintptr_t samples[CAPACITY];
static size_t used;
static size_t dropped;
static pid_t self;
static const char *out_prefix;
// The executable's code: [text_lo, text_hi).
static uintptr_t text_lo, text_hi;

// Copies the two words at `fp` (saved frame pointer, return address), or
// reports that they cannot be read.
static int read_frame(uintptr_t fp, uintptr_t frame[2]) {
    struct iovec local = {frame, 2 * sizeof(uintptr_t)};
    struct iovec remote = {(void *)fp, 2 * sizeof(uintptr_t)};
    return process_vm_readv(self, &local, 1, &remote, 1, 0) == (ssize_t)sizeof(uintptr_t[2]);
}

// Copies up to SCAN_WORDS words from `at`, stopping at the first one that
// cannot be read (one element per word: a transfer ends between
// elements); returns how many it copied.
static size_t read_words(uintptr_t at, uintptr_t words[SCAN_WORDS]) {
    struct iovec local = {words, SCAN_WORDS * sizeof(uintptr_t)};
    struct iovec remote[SCAN_WORDS];
    for (size_t i = 0; i < SCAN_WORDS; i++) {
        remote[i] = (struct iovec){(void *)(at + i * sizeof(uintptr_t)), sizeof(uintptr_t)};
    }
    ssize_t got = process_vm_readv(self, &local, 1, remote, SCAN_WORDS, 0);
    return got > 0 ? (size_t)got / sizeof(uintptr_t) : 0;
}

static int in_text(uintptr_t addr) {
    return addr >= text_lo && addr < text_hi;
}

// The first object `dl_iterate_phdr` reports is the executable: records
// the span of its executable segments.
static int find_text(struct dl_phdr_info *info, size_t size, void *data) {
    (void)size;
    (void)data;
    for (int i = 0; i < info->dlpi_phnum; i++) {
        const ElfW(Phdr) *ph = &info->dlpi_phdr[i];
        if (ph->p_type != PT_LOAD || !(ph->p_flags & PF_X)) {
            continue;
        }
        uintptr_t lo = info->dlpi_addr + ph->p_vaddr;
        if (!text_hi || lo < text_lo) {
            text_lo = lo;
        }
        if (lo + ph->p_memsz > text_hi) {
            text_hi = lo + ph->p_memsz;
        }
    }
    return 1;
}

static void on_sample(int sig, siginfo_t *info, void *context) {
    (void)sig;
    (void)info;
    const ucontext_t *uc = context;
    if (used + 1 + MAX_DEPTH > CAPACITY) {
        dropped++;
        return;
    }
    uintptr_t *sample = &samples[used];
    size_t n = 0;
    uintptr_t pc = (uintptr_t)uc->uc_mcontext.gregs[REG_RIP];
    sample[1 + n++] = pc;
    uintptr_t sp = (uintptr_t)uc->uc_mcontext.gregs[REG_RSP];
    uintptr_t fp = (uintptr_t)uc->uc_mcontext.gregs[REG_RBP];
    if (!in_text(pc)) {
        uintptr_t words[SCAN_WORDS];
        size_t got = read_words(sp, words);
        for (size_t i = 0; i < got; i++) {
            if (in_text(words[i])) {
                sample[1 + n++] = words[i];
                break;
            }
        }
    }
    while (n < MAX_DEPTH && fp >= sp && fp - sp < STACK_SPAN && fp % sizeof(uintptr_t) == 0) {
        uintptr_t frame[2];
        if (!read_frame(fp, frame) || frame[1] == 0) {
            break;
        }
        sample[1 + n++] = frame[1];
        // Frames grow toward lower addresses: a caller's frame is above.
        if (frame[0] <= fp) {
            break;
        }
        sp = fp;
        fp = frame[0];
    }
    sample[0] = n;
    used += 1 + n;
}

static void copy_file(const char *path, FILE *out) {
    FILE *in = fopen(path, "r");
    if (!in) {
        return;
    }
    char line[4096];
    while (fgets(line, sizeof line, in)) {
        fputs(line, out);
    }
    fclose(in);
}

static void dump(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    char path[4096];
    snprintf(path, sizeof path, "%s.%d", out_prefix, (int)self);
    FILE *out = fopen(path, "w");
    if (!out) {
        perror(path);
        return;
    }
    fputs("maps\n", out);
    copy_file("/proc/self/maps", out);
    fprintf(out, "samples %zu dropped %zu\n", used, dropped);
    for (size_t at = 0; at < used; at += 1 + samples[at]) {
        for (size_t i = 0; i < samples[at]; i++) {
            fprintf(out, i ? " %lx" : "%lx", (unsigned long)samples[at + 1 + i]);
        }
        fputc('\n', out);
    }
    fclose(out);
}

__attribute__((constructor)) static void start(void) {
    out_prefix = getenv("SAMPLER_OUT");
    if (!out_prefix) {
        return;
    }
    self = getpid();
    dl_iterate_phdr(find_text, NULL);
    // The handler runs on a stack of its own: a coroutine's stack may be
    // interrupted a few bytes above its guard page.
    static char alt[1 << 16];
    stack_t ss = {.ss_sp = alt, .ss_size = sizeof alt, .ss_flags = 0};
    sigaltstack(&ss, NULL);
    struct sigaction sa;
    memset(&sa, 0, sizeof sa);
    sa.sa_sigaction = on_sample;
    sa.sa_flags = SA_SIGINFO | SA_RESTART | SA_ONSTACK;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGPROF, &sa, NULL);
    atexit(dump);
    struct itimerval every = {{0, PERIOD_US}, {0, PERIOD_US}};
    setitimer(ITIMER_PROF, &every, NULL);
}
