/* Peak resident set size through getrusage(2): the benchmark's
   peak_rss_mb for the process under test (itself, or the waited-for
   server children). */

#include <sys/resource.h>
#include <caml/mlvalues.h>

/* who = 0: this process; who = 1: its terminated, waited-for children.
   Returns kilobytes (Linux ru_maxrss unit). */
value perfbench_maxrss_kb(value who)
{
  struct rusage ru;
  int w = Int_val(who) == 0 ? RUSAGE_SELF : RUSAGE_CHILDREN;
  if (getrusage(w, &ru) != 0) return Val_long(0);
  return Val_long(ru.ru_maxrss);
}
