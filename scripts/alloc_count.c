// An allocation counter small enough to read in one sitting. Preloaded
// into a process (`LD_PRELOAD`), it counts every call of malloc, calloc
// and realloc, passing each on to glibc's own entry point, and at exit
// writes ALLOC_COUNT_OUT.<pid>: one line per function, its name and its
// count. scripts/alloc_count.sh builds it, runs it and divides the counts
// by the requests a run attempted.
//
// A process that sets no ALLOC_COUNT_OUT is counted and writes nothing.
// The counts are relaxed atomics: exact in a single-threaded process, and
// no call is lost in one with threads.
//
//   gcc -O2 -shared -fPIC -o alloc_count.so scripts/alloc_count.c

#define _GNU_SOURCE
#include <stddef.h>
#include <stdio.h>
#include <stdlib.h>
#include <unistd.h>

// glibc's allocator under the names it exports for wrappers like this one.
extern void *__libc_malloc(size_t size);
extern void *__libc_calloc(size_t n, size_t size);
extern void *__libc_realloc(void *ptr, size_t size);

enum { MALLOC, CALLOC, REALLOC, KINDS };
static const char *const names[KINDS] = {"malloc", "calloc", "realloc"};
static unsigned long counts[KINDS];

static void count(int kind) {
    __atomic_fetch_add(&counts[kind], 1, __ATOMIC_RELAXED);
}

void *malloc(size_t size) {
    count(MALLOC);
    return __libc_malloc(size);
}

void *calloc(size_t n, size_t size) {
    count(CALLOC);
    return __libc_calloc(n, size);
}

void *realloc(void *ptr, size_t size) {
    count(REALLOC);
    return __libc_realloc(ptr, size);
}

// Runs at exit: the counts are read before the file is opened, so the
// writing's own allocations are not in them.
__attribute__((destructor)) static void report(void) {
    unsigned long seen[KINDS];
    for (int k = 0; k < KINDS; k++) {
        seen[k] = __atomic_load_n(&counts[k], __ATOMIC_RELAXED);
    }
    const char *prefix = getenv("ALLOC_COUNT_OUT");
    if (prefix == NULL) {
        return;
    }
    char path[4096];
    snprintf(path, sizeof path, "%s.%d", prefix, (int)getpid());
    FILE *out = fopen(path, "w");
    if (out == NULL) {
        return;
    }
    for (int k = 0; k < KINDS; k++) {
        fprintf(out, "%s %lu\n", names[k], seen[k]);
    }
    fclose(out);
}
