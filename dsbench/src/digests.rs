//! Report digests pinned for the default seed at full scale (see
//! `util::report_digest`). A change that moves any of these changed what
//! the simulator computes.

/// `figs_synth`: one digest per row, labelled `<figure>/<row label>`.
pub const FIGS: [(&str, u64); 24] = [
    ("fig2/seq 1c", 0x827368c3d932c1d9),
    ("fig2/seq 2c", 0x114434a8844ae4fd),
    ("fig2/seq 4c", 0x60e9d37ca662b962),
    ("fig2/seq 8c", 0x9d59bd7195b5feed),
    ("fig2/rand 1c", 0x6d8adef0051014f6),
    ("fig2/rand 2c", 0xc047b80b43c715b0),
    ("fig2/rand 4c", 0x0365a6e449cff7d1),
    ("fig2/rand 8c", 0x588503be2460df27),
    ("fig3/seq w0", 0x827368c3d932c1d9),
    ("fig3/seq w10", 0x18e9969b1a2d0022),
    ("fig3/seq w20", 0x0e38c3cd031cf68e),
    ("fig3/seq w50", 0xb1151b2962407766),
    ("fig3/rand w0", 0x6d8adef0051014f6),
    ("fig3/rand w10", 0x52d91aef2db9f300),
    ("fig3/rand w20", 0x082dbafe68a8a0f3),
    ("fig3/rand w50", 0x1dc9c2409f14b950),
    ("fig4/seq open", 0x114434a8844ae4fd),
    ("fig4/seq closed", 0x44dcd8b70f9e2d1b),
    ("fig4/rand open", 0xc047b80b43c715b0),
    ("fig4/rand closed", 0xb8906374c95d5cb6),
    ("fig6/seq w50 1c open def", 0xb1151b2962407766),
    ("fig6/seq w0 2c closed def", 0x44dcd8b70f9e2d1b),
    ("fig6/seq w50 1c open int", 0xd63cc9ef5600ccf7),
    ("fig6/seq w0 2c closed int", 0x54c04e9216d21a3d),
];

/// `gap_pr_8c` at the pinned seed.
pub const GAP_PR: u64 = 0xfa9a098c96b560c7;

/// `ckpt_rand_rw_8c` at the pinned seed.
pub const CKPT: u64 = 0xbf1541f72978817e;

/// Every `serve_seq_8c` job (fixed inputs).
pub const SERVE: u64 = 0x0590ffdddd84bef3;
