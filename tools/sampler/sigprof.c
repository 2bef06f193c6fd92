/* SIGPROF stack sampler, loaded with LD_PRELOAD.
 *
 * On load it arms ITIMER_PROF, which fires SIGPROF as the process burns CPU.
 * Each signal takes one backtrace() of the interrupted thread into a buffer
 * reserved up front (the handler neither allocates nor locks). At exit the
 * stacks and a copy of /proc/self/maps go to one text file, which
 * tools/sampler/window_split.py symbolizes and splits.
 *
 *   cc -O2 -shared -fPIC -o libsigprof.so tools/sampler/sigprof.c
 *   SAMPLER_OUT=run.prof LD_PRELOAD=$PWD/libsigprof.so <program> <args>
 *
 * SAMPLER_OUT names the dump (default sigprof.<pid>.prof in the working
 * directory). The timer asks for a sample per millisecond of CPU; the kernel
 * rounds that up to its tick. The first kMaxSamples samples are kept and
 * later ones are counted as dropped.
 *
 * Dump format:
 *   maps
 *   <the lines of /proc/self/maps>
 *   samples <kept> dropped <dropped>
 *   <hex pc> <hex return address> ...    one line per sample, innermost first
 */
#define _GNU_SOURCE
#include <execinfo.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/mman.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

enum { kDepth = 64, kPeriodUs = 1000, kMaxSamples = 100000 };

typedef struct {
  int frames;
  void* pc[kDepth];
} Sample;

static Sample* samples;
static volatile size_t taken;   /* samples stored */
static volatile size_t dropped; /* samples that found the buffer full */

static void on_sigprof(int sig, siginfo_t* info, void* context) {
  (void)sig;
  (void)info;
  if (taken >= kMaxSamples) {
    ++dropped;
    return;
  }
  Sample* s = &samples[taken];
  void* raw[kDepth + 8];
  const int n = backtrace(raw, kDepth + 8);
  /* Drop the handler's own frames: the stack proper starts at the
   * interrupted instruction, which the signal context names. */
  int first = n < 2 ? n : 2;
#if defined(__x86_64__)
  const void* interrupted = (const void*)((ucontext_t*)context)->uc_mcontext.gregs[REG_RIP];
  for (int i = 0; i < n; ++i) {
    if (raw[i] == interrupted) {
      first = i;
      break;
    }
  }
#else
  (void)context;
#endif
  int frames = n - first;
  if (frames > kDepth) frames = kDepth;
  memcpy(s->pc, raw + first, (size_t)frames * sizeof(void*));
  s->frames = frames;
  ++taken;
}

__attribute__((constructor)) static void sampler_start(void) {
  /* Untouched pages of the reservation cost no memory. */
  samples = mmap(NULL, kMaxSamples * sizeof(Sample), PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (samples == MAP_FAILED) {
    samples = NULL;
    return;
  }
  /* The first backtrace() loads the unwinder, which allocates: do it here,
   * not in the handler. */
  void* warm[4];
  backtrace(warm, 4);

  struct sigaction action;
  memset(&action, 0, sizeof action);
  action.sa_sigaction = on_sigprof;
  action.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&action.sa_mask);
  sigaction(SIGPROF, &action, NULL);

  struct itimerval timer;
  timer.it_interval.tv_sec = 0;
  timer.it_interval.tv_usec = kPeriodUs;
  timer.it_value = timer.it_interval;
  setitimer(ITIMER_PROF, &timer, NULL);
}

__attribute__((destructor)) static void sampler_dump(void) {
  if (samples == NULL) return;
  struct itimerval off;
  memset(&off, 0, sizeof off);
  setitimer(ITIMER_PROF, &off, NULL);
  signal(SIGPROF, SIG_IGN);

  char path[4096];
  const char* out = getenv("SAMPLER_OUT");
  if (out != NULL && *out != '\0') {
    snprintf(path, sizeof path, "%s", out);
  } else {
    snprintf(path, sizeof path, "sigprof.%ld.prof", (long)getpid());
  }
  FILE* dump = fopen(path, "w");
  if (dump == NULL) {
    perror("sigprof: cannot write the dump");
    return;
  }
  fputs("maps\n", dump);
  FILE* maps = fopen("/proc/self/maps", "r");
  if (maps != NULL) {
    char line[4096];
    while (fgets(line, sizeof line, maps) != NULL) fputs(line, dump);
    fclose(maps);
  }
  fprintf(dump, "samples %zu dropped %zu\n", (size_t)taken, (size_t)dropped);
  for (size_t i = 0; i < taken; ++i) {
    for (int f = 0; f < samples[i].frames; ++f) {
      fprintf(dump, f == 0 ? "%lx" : " %lx", (unsigned long)(uintptr_t)samples[i].pc[f]);
    }
    fputc('\n', dump);
  }
  fclose(dump);
  fprintf(stderr, "sigprof: %zu samples (%zu dropped) written to %s\n", (size_t)taken,
          (size_t)dropped, path);
}
