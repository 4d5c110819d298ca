"""NFSv2 wire protocol definitions (RFC 1094 subset, with extensions).

Extensions over stock NFSv2, mirroring the paper's modified server:

* ``NFSPROC_CREATE``/``NFSPROC_MKDIR`` replies may carry an extra
  credential string (the paper adds procedures that "upon successful
  creation of a file/directory return a credential with full access to
  the creator"),
* a ``NFSPROC_SUBMITCRED`` procedure accepts KeyNote credentials over RPC
  (the paper's credential-submission utility),
* ``NFSPROC_REVOKE`` lets the administrator notify the server of bad keys
  or credentials (the paper's revocation mechanism).

Plain CFS/CFS-NE servers simply do not register the extension procedures.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass

from repro.errors import (
    FSError,
    NFSError,
    XDRError,
)
from repro.fs.inode import FileType, Inode
from repro.fs.vfs import FileId
from repro.rpc.xdr import XDRDecoder, XDREncoder

NFS_PROGRAM = 100003
NFS_VERSION = 2
MOUNT_PROGRAM = 100005
MOUNT_VERSION = 1

FHSIZE = 32
MAX_DATA = 8192  # NFSv2 maximum transfer size
MAX_NAME = 255
MAX_PATH = 1024


class Proc(enum.IntEnum):
    """NFS procedure numbers (RFC 1094) plus DisCFS extensions."""

    NULL = 0
    GETATTR = 1
    SETATTR = 2
    ROOT = 3  # obsolete
    LOOKUP = 4
    READLINK = 5
    READ = 6
    WRITECACHE = 7  # unused
    WRITE = 8
    CREATE = 9
    REMOVE = 10
    RENAME = 11
    LINK = 12
    SYMLINK = 13
    MKDIR = 14
    RMDIR = 15
    READDIR = 16
    STATFS = 17
    # --- DisCFS extensions (outside the RFC 1094 numbering) ---
    SUBMITCRED = 100
    REVOKE = 101
    LISTCREDS = 102
    AUDITLOG = 103


class NFSStat(enum.IntEnum):
    """nfsstat codes."""

    NFS_OK = 0
    NFSERR_PERM = 1
    NFSERR_NOENT = 2
    NFSERR_IO = 5
    NFSERR_NXIO = 6
    NFSERR_ACCES = 13
    NFSERR_EXIST = 17
    NFSERR_NODEV = 19
    NFSERR_NOTDIR = 20
    NFSERR_ISDIR = 21
    NFSERR_INVAL = 22
    NFSERR_FBIG = 27
    NFSERR_NOSPC = 28
    NFSERR_ROFS = 30
    NFSERR_NAMETOOLONG = 63
    NFSERR_NOTEMPTY = 66
    NFSERR_DQUOT = 69
    NFSERR_STALE = 70


_ERRNO_TO_STAT = {
    "ENOENT": NFSStat.NFSERR_NOENT,
    "EIO": NFSStat.NFSERR_IO,
    "EACCES": NFSStat.NFSERR_ACCES,
    "EEXIST": NFSStat.NFSERR_EXIST,
    "ENOTDIR": NFSStat.NFSERR_NOTDIR,
    "EISDIR": NFSStat.NFSERR_ISDIR,
    "EINVAL": NFSStat.NFSERR_INVAL,
    "ENOSPC": NFSStat.NFSERR_NOSPC,
    "EROFS": NFSStat.NFSERR_ROFS,
    "ENAMETOOLONG": NFSStat.NFSERR_NAMETOOLONG,
    "ENOTEMPTY": NFSStat.NFSERR_NOTEMPTY,
    "ESTALE": NFSStat.NFSERR_STALE,
}


def stat_for_error(exc: FSError) -> NFSStat:
    """Map a filesystem exception onto the closest nfsstat code."""
    return _ERRNO_TO_STAT.get(exc.errno_name, NFSStat.NFSERR_IO)


class FType(enum.IntEnum):
    """NFSv2 ftype."""

    NFNON = 0
    NFREG = 1
    NFDIR = 2
    NFBLK = 3
    NFCHR = 4
    NFLNK = 5


_FILETYPE_TO_FTYPE = {
    FileType.REGULAR: FType.NFREG,
    FileType.DIRECTORY: FType.NFDIR,
    FileType.SYMLINK: FType.NFLNK,
}

_FTYPES = {ftype.value: ftype for ftype in FType}

_TYPE_MODE_BITS = {
    FType.NFREG: 0o100000,
    FType.NFDIR: 0o040000,
    FType.NFLNK: 0o120000,
}


# ---------------------------------------------------------------------------
# File handles
# ---------------------------------------------------------------------------

#: ino, generation, zero padding: the 32-byte handle, also the leading
#: fields of the fixed argument records below.
_FH_FORMAT = ">QQ16s"
_FH_STRUCT = struct.Struct(_FH_FORMAT)
#: READ: fh, offset, count, totalcount.
READ_ARGS = struct.Struct(_FH_FORMAT + "3I")
#: WRITE: fh, beginoffset, offset, totalcount, then the data's length word.
WRITE_ARGS = struct.Struct(_FH_FORMAT + "4I")
#: READDIR: fh, cookie, count.
READDIR_ARGS = struct.Struct(_FH_FORMAT + "2I")


@dataclass(frozen=True)
class FileHandle:
    """An opaque 32-byte NFS file handle: (ino, generation, zero padding)."""

    ino: int
    generation: int

    def encode(self) -> bytes:
        return _FH_STRUCT.pack(self.ino, self.generation, b"")

    @classmethod
    def decode(cls, raw: bytes) -> "FileHandle":
        if len(raw) != FHSIZE:
            raise XDRError(f"file handle must be {FHSIZE} bytes, got {len(raw)}")
        ino, generation, _pad = _FH_STRUCT.unpack(raw)
        return cls(ino=ino, generation=generation)

    @classmethod
    def of(cls, inode: Inode) -> "FileHandle":
        return cls(ino=inode.ino, generation=inode.generation)

    def file_id(self) -> FileId:
        return FileId(ino=self.ino, generation=self.generation)


def pack_fhandle(enc: XDREncoder, fh: FileHandle) -> None:
    enc.pack_struct(_FH_STRUCT, fh.ino, fh.generation, b"")


def unpack_fhandle(dec: XDRDecoder) -> FileHandle:
    ino, generation, _pad = dec.unpack_struct(_FH_STRUCT)
    return FileHandle(ino=ino, generation=generation)


# ---------------------------------------------------------------------------
# fattr / sattr
# ---------------------------------------------------------------------------


#: ftype, mode, nlink, uid, gid, size, blocksize, rdev, blocks, fsid,
#: fileid, then seconds and microseconds of atime, mtime and ctime.
_FATTR = struct.Struct(">i16I")


def _timeval(t: float) -> tuple[int, int]:
    return int(t) & 0xFFFFFFFF, int((t % 1) * 1_000_000)


def pack_fattr(enc: XDREncoder, inode: Inode, block_size: int,
               mode: int | None = None) -> None:
    """Pack ``inode``'s attributes, reporting permission bits ``mode``
    (default: the inode's own); the inode itself is never written."""
    ftype = _FILETYPE_TO_FTYPE[inode.ftype]
    if mode is None:
        mode = inode.mode
    size = inode.size
    enc.pack_struct(
        _FATTR, ftype, (mode & 0o7777) | _TYPE_MODE_BITS[ftype], inode.nlink,
        inode.uid, inode.gid, min(size, 0xFFFFFFFF), block_size,
        0, (size + block_size - 1) // block_size, 0, inode.ino,  # rdev, blocks, fsid
        *_timeval(inode.atime), *_timeval(inode.mtime), *_timeval(inode.ctime),
    )


@dataclass
class FAttr:
    """Decoded fattr (client side)."""

    ftype: FType
    mode: int
    nlink: int
    uid: int
    gid: int
    size: int
    blocksize: int
    blocks: int
    fileid: int
    atime: float
    mtime: float
    ctime: float

    @property
    def is_dir(self) -> bool:
        return self.ftype == FType.NFDIR

    @property
    def permission_bits(self) -> int:
        return self.mode & 0o7777


def unpack_fattr(dec: XDRDecoder) -> FAttr:
    (ftype, mode, nlink, uid, gid, size, blocksize, _rdev, blocks, _fsid,
     fileid, asec, ausec, msec, musec, csec, cusec) = dec.unpack_struct(_FATTR)
    kind = _FTYPES.get(ftype)
    if kind is None:
        raise XDRError(f"unknown ftype {ftype}")
    return FAttr(ftype=kind, mode=mode, nlink=nlink, uid=uid, gid=gid,
                 size=size, blocksize=blocksize, blocks=blocks, fileid=fileid,
                 atime=asec + ausec / 1_000_000, mtime=msec + musec / 1_000_000,
                 ctime=csec + cusec / 1_000_000)


#: sattr field value meaning "do not change" (RFC 1094 uses all-ones).
SATTR_NO_CHANGE = 0xFFFFFFFF


@dataclass
class SAttr:
    """Settable attributes; None fields are left unchanged."""

    mode: int | None = None
    uid: int | None = None
    gid: int | None = None
    size: int | None = None
    atime: float | None = None
    mtime: float | None = None


def pack_sattr(enc: XDREncoder, sattr: SAttr) -> None:
    for value in (sattr.mode, sattr.uid, sattr.gid, sattr.size):
        enc.pack_uint(SATTR_NO_CHANGE if value is None else value)
    for t in (sattr.atime, sattr.mtime):
        sec, usec = (SATTR_NO_CHANGE, SATTR_NO_CHANGE) if t is None else _timeval(t)
        enc.pack_uint(sec)
        enc.pack_uint(usec)


def unpack_sattr(dec: XDRDecoder) -> SAttr:
    raw = [dec.unpack_uint() for _ in range(4)]
    mode, uid, gid, size = (None if v == SATTR_NO_CHANGE else v for v in raw)
    times: list[float | None] = []
    for _ in range(2):
        sec = dec.unpack_uint()
        usec = dec.unpack_uint()
        times.append(None if sec == SATTR_NO_CHANGE else sec + usec / 1_000_000)
    return SAttr(mode=mode, uid=uid, gid=gid, size=size, atime=times[0], mtime=times[1])


def raise_for_status(status: int) -> None:
    """Client-side helper: raise NFSError unless NFS_OK."""
    if status != NFSStat.NFS_OK:
        try:
            name = NFSStat(status).name
        except ValueError:
            name = f"status {status}"
        raise NFSError(status, f"server returned {name}")
