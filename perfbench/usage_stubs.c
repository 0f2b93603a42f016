/* The calling thread's CPU time and voluntary context switches, for
   telling a read the host interrupted from one that ran or blocked.
   Writes immediate integers into a caller-owned array: no allocation,
   no GC interaction. */

#define _GNU_SOURCE
#include <sys/resource.h>
#include <time.h>
#include <caml/mlvalues.h>

/* CLOCK_THREAD_CPUTIME_ID counts the running slice up to now;
   getrusage's CPU times only advance at scheduler ticks, so only its
   context-switch count is used. */
value perfbench_thread_usage(value a)
{
  struct timespec ts;
  struct rusage ru;
  long cpu_ns = 0, voluntary = 0;
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) == 0)
    cpu_ns = ts.tv_sec * 1000000000L + ts.tv_nsec;
  if (getrusage(RUSAGE_THREAD, &ru) == 0)
    voluntary = ru.ru_nvcsw;
  Field(a, 0) = Val_long(cpu_ns);
  Field(a, 1) = Val_long(voluntary);
  return Val_unit;
}
