/* poll(2) and SCM_RIGHTS fd-passing for the serving layer.
 *
 * OCaml's Unix library exposes neither: select is hard-capped at
 * FD_SETSIZE (~1024) by fd *value*, not count, and sendmsg/recvmsg
 * with ancillary data have no binding at all.  Both are needed for
 * internet-scale serving: poll for the readiness loop, fd-passing for
 * handing accepted connections to shard processes.
 *
 * File descriptors are immediate ints on every Unix OCaml port, so
 * Unix.file_descr values cross the boundary as Int_val/Val_int.
 */

/* ppoll(2) is a GNU extension in glibc's <poll.h> */
#if defined(__linux__) && !defined(_GNU_SOURCE)
#define _GNU_SOURCE
#endif

#include <caml/mlvalues.h>
#include <caml/alloc.h>
#include <caml/memory.h>
#include <caml/fail.h>
#include <caml/threads.h>
#include <caml/unixsupport.h>

#include <errno.h>
#include <fcntl.h>
#include <limits.h>
#include <poll.h>
#include <time.h>
#include <stdlib.h>
#include <string.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <unistd.h>

#if defined(__linux__) || defined(__FreeBSD__) || defined(__NetBSD__) || \
    defined(__OpenBSD__) || defined(__DragonFly__)
#define HAVE_PPOLL 1
#endif

/* caml_fpan_poll fds events revents nfds timeout_ns
 *
 * fds.(i) / events.(i) describe slot i (events is the POLLIN/POLLOUT
 * bit mask); on return revents.(i) holds the kernel's revents mask.
 * Returns the number of ready slots.  The runtime lock is released
 * around the poll so the batcher and scheduler domains keep running
 * while the io domain sleeps.  The timeout is in nanoseconds
 * (negative: wait forever): poll(2) counts whole milliseconds, so a
 * 200 us batching window would sleep a full millisecond; ppoll(2)
 * takes a timespec and is used where the platform has it, poll(2)
 * with the timeout rounded up elsewhere.
 */
CAMLprim value caml_fpan_poll(value v_fds, value v_events, value v_revents,
                              value v_nfds, value v_timeout_ns)
{
  CAMLparam5(v_fds, v_events, v_revents, v_nfds, v_timeout_ns);
  int nfds = Int_val(v_nfds);
  intnat ns = Long_val(v_timeout_ns);
  struct pollfd stack_pfds[128];
  struct pollfd *pfds = stack_pfds;
  int i, ret, err;

  if (nfds < 0 || nfds > Wosize_val(v_fds) || nfds > Wosize_val(v_events) ||
      nfds > Wosize_val(v_revents))
    caml_invalid_argument("Serve.Readiness.poll: bad nfds");

  if (nfds > 128) {
    pfds = malloc((size_t)nfds * sizeof(struct pollfd));
    if (pfds == NULL) caml_raise_out_of_memory();
  }
  for (i = 0; i < nfds; i++) {
    pfds[i].fd = Int_val(Field(v_fds, i));
    pfds[i].events = (short)Int_val(Field(v_events, i));
    pfds[i].revents = 0;
  }

  caml_release_runtime_system();
#ifdef HAVE_PPOLL
  if (ns < 0) {
    ret = ppoll(pfds, (nfds_t)nfds, NULL, NULL);
  } else {
    struct timespec ts;
    ts.tv_sec = (time_t)(ns / 1000000000);
    ts.tv_nsec = (long)(ns % 1000000000);
    ret = ppoll(pfds, (nfds_t)nfds, &ts, NULL);
  }
#else
  {
    intnat ms = ns < 0 ? -1 : (ns + 999999) / 1000000;
    ret = poll(pfds, (nfds_t)nfds, ms > INT_MAX ? INT_MAX : (int)ms);
  }
#endif
  err = errno;
  caml_acquire_runtime_system();

  if (ret < 0) {
    if (pfds != stack_pfds) free(pfds);
    unix_error(err, "poll", Nothing);
  }
  for (i = 0; i < nfds; i++)
    Field(v_revents, i) = Val_int(pfds[i].revents);
  if (pfds != stack_pfds) free(pfds);
  CAMLreturn(Val_int(ret));
}

/* The event bits, resolved at C-compile time so the OCaml side never
 * hardcodes platform-specific constants. */
CAMLprim value caml_fpan_poll_bits(value unit)
{
  CAMLparam1(unit);
  CAMLlocal1(t);
  t = caml_alloc_tuple(6);
  Store_field(t, 0, Val_int(POLLIN));
  Store_field(t, 1, Val_int(POLLOUT));
  Store_field(t, 2, Val_int(POLLERR));
  Store_field(t, 3, Val_int(POLLHUP));
  Store_field(t, 4, Val_int(POLLNVAL));
  Store_field(t, 5, Val_int(POLLPRI));
  CAMLreturn(t);
}

/* caml_fpan_send_fd chan byte fd
 *
 * Send one control byte over the unix-domain socket [chan], with [fd]
 * attached as SCM_RIGHTS ancillary data when fd >= 0.  Used by the
 * shard distributor to hand an accepted connection to a shard.
 */
CAMLprim value caml_fpan_send_fd(value v_chan, value v_byte, value v_fd)
{
  CAMLparam3(v_chan, v_byte, v_fd);
  int chan = Int_val(v_chan);
  int fd = Int_val(v_fd);
  char byte = (char)Int_val(v_byte);
  struct msghdr msg;
  struct iovec iov;
  char cbuf[CMSG_SPACE(sizeof(int))];
  ssize_t n;

  memset(&msg, 0, sizeof(msg));
  iov.iov_base = &byte;
  iov.iov_len = 1;
  msg.msg_iov = &iov;
  msg.msg_iovlen = 1;
  if (fd >= 0) {
    struct cmsghdr *cmsg;
    memset(cbuf, 0, sizeof(cbuf));
    msg.msg_control = cbuf;
    msg.msg_controllen = CMSG_SPACE(sizeof(int));
    cmsg = CMSG_FIRSTHDR(&msg);
    cmsg->cmsg_level = SOL_SOCKET;
    cmsg->cmsg_type = SCM_RIGHTS;
    cmsg->cmsg_len = CMSG_LEN(sizeof(int));
    memcpy(CMSG_DATA(cmsg), &fd, sizeof(int));
  }

  caml_release_runtime_system();
  do { n = sendmsg(chan, &msg, 0); } while (n < 0 && errno == EINTR);
  caml_acquire_runtime_system();

  if (n < 0) uerror("sendmsg", Nothing);
  CAMLreturn(Val_unit);
}

/* caml_fpan_recv_fd chan -> (control_byte, fd)
 *
 * Receive one control byte and at most one SCM_RIGHTS descriptor.
 * control_byte is -1 on orderly EOF (the distributor closed the
 * channel: drain); fd is -1 when no descriptor was attached.  The
 * received descriptor gets CLOEXEC set.
 */
CAMLprim value caml_fpan_recv_fd(value v_chan)
{
  CAMLparam1(v_chan);
  CAMLlocal1(t);
  int chan = Int_val(v_chan);
  char byte = 0;
  struct msghdr msg;
  struct iovec iov;
  char cbuf[CMSG_SPACE(sizeof(int))];
  struct cmsghdr *cmsg;
  ssize_t n;
  int fd = -1;

  memset(&msg, 0, sizeof(msg));
  iov.iov_base = &byte;
  iov.iov_len = 1;
  msg.msg_iov = &iov;
  msg.msg_iovlen = 1;
  msg.msg_control = cbuf;
  msg.msg_controllen = sizeof(cbuf);

  caml_release_runtime_system();
  do { n = recvmsg(chan, &msg, 0); } while (n < 0 && errno == EINTR);
  caml_acquire_runtime_system();

  if (n < 0) uerror("recvmsg", Nothing);
  if (n > 0) {
    for (cmsg = CMSG_FIRSTHDR(&msg); cmsg != NULL; cmsg = CMSG_NXTHDR(&msg, cmsg)) {
      if (cmsg->cmsg_level == SOL_SOCKET && cmsg->cmsg_type == SCM_RIGHTS &&
          cmsg->cmsg_len >= CMSG_LEN(sizeof(int))) {
        memcpy(&fd, CMSG_DATA(cmsg), sizeof(int));
#ifdef FD_CLOEXEC
        if (fd >= 0) fcntl(fd, F_SETFD, FD_CLOEXEC);
#endif
      }
    }
  }

  t = caml_alloc_tuple(2);
  Store_field(t, 0, Val_int(n == 0 ? -1 : (int)byte));
  Store_field(t, 1, Val_int(fd));
  CAMLreturn(t);
}
