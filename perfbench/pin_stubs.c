/* Pin the calling thread, and so every process and domain it starts
 * afterwards, to the CPU it is running on.
 *
 * The reference kernel stands for the speed of the CPU the work runs on.
 * On a shared host the CPUs of one machine run at different speeds from
 * moment to moment (whatever their neighbours do), so a kernel timed on
 * one CPU does not track work done on another. */

#define _GNU_SOURCE
#include <caml/mlvalues.h>

#include <sched.h>

/* Returns the CPU, or -1 when the platform cannot pin. */
CAMLprim value perfbench_pin_here(value unit)
{
  (void)unit;
#if defined(__linux__)
  int cpu = sched_getcpu();
  cpu_set_t set;
  if (cpu < 0)
    return Val_int(-1);
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  if (sched_setaffinity(0, sizeof set, &set) == 0)
    return Val_int(cpu);
#endif
  return Val_int(-1);
}
