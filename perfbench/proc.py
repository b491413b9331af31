"""Running and observing the processes a workload starts (Linux)."""

import os
import signal
import socket
import struct
import subprocess
import threading
import time

CLK_TCK = os.sysconf("SC_CLK_TCK")

# Netlink sock_diag (linux/netlink.h, linux/sock_diag.h, linux/inet_diag.h).
NETLINK_SOCK_DIAG = 4
SOCK_DIAG_BY_FAMILY = 20
NLM_F_REQUEST, NLM_F_DUMP = 0x1, 0x300
NLMSG_ERROR, NLMSG_DONE = 2, 3
TCP_ESTABLISHED = 1


class Done:
    """A finished process: exit code, wall seconds from spawn to exit,
    user + sys CPU seconds (its waited-for children included) and peak
    resident set in MB."""

    def __init__(self, code, wall, cpu, rss_mb, stdout, stderr):
        self.code = code
        self.wall = wall
        self.cpu = cpu
        self.rss_mb = rss_mb
        self.stdout = stdout
        self.stderr = stderr


def spawn(args, log):
    """Starts `args` with stdout and stderr going to `log`.out / `log`.err."""
    with open(log + ".out", "wb") as out, open(log + ".err", "wb") as err:
        return subprocess.Popen(args, stdout=out, stderr=err, stdin=subprocess.DEVNULL)


def reap(proc, started, log, timeout):
    """Waits for `proc` (killing it after `timeout` seconds) and measures it."""
    killer = threading.Timer(timeout, kill, (proc.pid,))
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(log + ".out", "rb") as f:
        stdout = f.read().decode("utf-8", "replace")
    with open(log + ".err", "rb") as f:
        stderr = f.read().decode("utf-8", "replace")
    return Done(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                usage.ru_maxrss / 1024.0, stdout, stderr)


def run(args, log, timeout=150):
    """Runs `args` to completion and measures it."""
    started = time.perf_counter()
    proc = spawn(args, log)
    return reap(proc, started, log, timeout)


def kill(pid):
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def cpu_seconds(pid):
    """User + sys CPU seconds a live process has used so far."""
    with open("/proc/%d/stat" % pid) as f:
        fields = f.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / CLK_TCK


def peak_rss_mb(pid):
    """Peak resident set (VmHWM) of a live process, in MB."""
    with open("/proc/%d/status" % pid) as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def children(pid):
    """Process ids whose parent is `pid`."""
    out = []
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open("/proc/%s/stat" % name) as f:
                fields = f.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == pid:
            out.append(int(name))
    return out


def tcp_established(port, family=socket.AF_INET):
    """Whether a TCP connection to or from local `port` is established.
    Asks the kernel over netlink (sock_diag) for established sockets only:
    reading /proc/net/tcp lists every closed connection still in
    TIME_WAIT too, and with a few hundred of them one read costs
    milliseconds of CPU, as long as the start-up being timed."""
    request = struct.pack("=BBBBI", family, socket.IPPROTO_TCP, 0, 0, 1 << TCP_ESTABLISHED)
    request += bytes(48)  # inet_diag_sockid: match any address and port
    header = struct.pack("=IHHII", 16 + len(request), SOCK_DIAG_BY_FAMILY,
                         NLM_F_REQUEST | NLM_F_DUMP, 1, 0)
    found = False
    with socket.socket(socket.AF_NETLINK, socket.SOCK_DGRAM, NETLINK_SOCK_DIAG) as s:
        s.send(header + request)
        while True:
            data = s.recv(65536)
            off = 0
            while off < len(data):
                length, kind = struct.unpack_from("=IH", data, off)
                if kind == NLMSG_DONE:
                    return found
                if kind == NLMSG_ERROR:
                    raise OSError("sock_diag request refused")
                # inet_diag_msg: family, state, timer, retrans, then the
                # source and destination ports, big-endian.
                found = found or port in struct.unpack_from(">HH", data, off + 16 + 4)
                off += (length + 3) & ~3


def alive(pid):
    """Whether `pid` is running (not exited, reaped or not)."""
    try:
        with open("/proc/%d/stat" % pid) as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def stop(proc, started, log, grace=20):
    """Sends SIGTERM, then reaps the process (SIGKILL after `grace` s)."""
    try:
        os.kill(proc.pid, signal.SIGTERM)
    except ProcessLookupError:
        pass
    return reap(proc, started, log, grace)
