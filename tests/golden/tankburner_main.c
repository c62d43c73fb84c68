#include <stdio.h>
#include <stdlib.h>
#include <string.h>

enum states { t1b1, t1b2, t2b1, t2b2, t3b1, t3b2, t4b1, t4b2 };
enum states tankburnerR(enum states cstate);
extern long k;
extern int stuck;
extern double x, x_u;
extern double c, c_u;
extern int ON, ON_out;
extern int OFF, OFF_out;

static const char *statename[] = { "t1b1", "t1b2", "t2b1", "t2b2", "t3b1", "t3b2", "t4b1", "t4b2" };
static const int rowkind[] = { 0, 0, 1, 1, 0, 0, 1, 1 };
static char x_txt[32];

static long *stim_ticks = 0;
static unsigned long long *stim_masks = 0;
static long stim_n = 0, stim_cap = 0;

static void load_stimulus(const char *path) {
    FILE *fp = fopen(path, "r");
    if (!fp) {
        fprintf(stderr, "cannot open stimulus file %s\n", path);
        exit(2);
    }
    char line[8192];
    int row = 0;
    while (fgets(line, sizeof line, fp)) {
        row++;
        char *p = line;
        while (*p == ' ' || *p == '\t') p++;
        if (*p == '\n' || *p == '\r' || *p == '\0' || *p == '#') continue;
        char *end = 0;
        long tick = strtol(p, &end, 10);
        if (end == p) {
            if (row == 1) continue; /* header line */
            fprintf(stderr, "%s:%d: expected a tick number\n", path, row);
            exit(2);
        }
        if (tick < 0) {
            fprintf(stderr, "%s:%d: negative tick\n", path, row);
            exit(2);
        }
        unsigned long long mask = 0;
        p = end;
        if (*p == ',') p++;
        while (*p && *p != '\n' && *p != '\r') {
            char *q = p;
            while (*q && *q != ';' && *q != '\n' && *q != '\r') q++;
            long n = q - p;
            while (n > 0 && *p == ' ') { p++; n--; }
            while (n > 0 && p[n - 1] == ' ') n--;
            if (n == 2 && strncmp(p, "ON", 2) == 0) mask |= 1ULL;
            if (n == 3 && strncmp(p, "OFF", 3) == 0) mask |= 2ULL;
            p = (*q == ';') ? q + 1 : q;
        }
        if (stim_n == stim_cap) {
            stim_cap = stim_cap ? stim_cap * 2 : 64;
            stim_ticks = realloc(stim_ticks, stim_cap * sizeof *stim_ticks);
            stim_masks = realloc(stim_masks, stim_cap * sizeof *stim_masks);
            if (!stim_ticks || !stim_masks) exit(2);
        }
        stim_ticks[stim_n] = tick;
        stim_masks[stim_n] = mask;
        stim_n++;
    }
    fclose(fp);
    /* insertion sort by tick; equal ticks merge during lookup */
    for (long i = 1; i < stim_n; i++) {
        long tick = stim_ticks[i];
        unsigned long long mask = stim_masks[i];
        long j = i - 1;
        while (j >= 0 && stim_ticks[j] > tick) {
            stim_ticks[j + 1] = stim_ticks[j];
            stim_masks[j + 1] = stim_masks[j];
            j--;
        }
        stim_ticks[j + 1] = tick;
        stim_masks[j + 1] = mask;
    }
}

int main(int argc, char **argv) {
    long ticks = 10000;
    const char *stim_path = 0;
    if (argc > 1) ticks = atol(argv[1]);
    if (argc > 2) stim_path = argv[2];
    if (stim_path) load_stimulus(stim_path);
    enum states cstate = t1b1;
    long si = 0;
    snprintf(x_txt, sizeof x_txt, "%.15g", x);
    printf("tick,time,location,x,c,inputs,outputs\n");
    for (long t = 0; t < ticks; t++) {
        cstate = tankburnerR(cstate);
        if (stuck) {
            fprintf(stderr, "stuck at tick %ld in state %s: no evolution step and no enabled transition (k = %ld)\n", t, statename[cstate], k);
            fprintf(stderr, "  x = %.17g\n", x_u);
            fprintf(stderr, "  c = %.17g\n", c_u);
            if (ON) fprintf(stderr, "  visible: ON\n");
            if (OFF) fprintf(stderr, "  visible: OFF\n");
            exit(3);
        }
        if (k == 0) {
            snprintf(x_txt, sizeof x_txt, "%.15g", x);
        }
        char ins[15];
        char outs[15];
        int off;
        off = 0;
        ins[off] = '\0';
        off = 0;
        if (ON_out) {
            if (off) outs[off++] = ';';
            memcpy(outs + off, "ON", 2);
            off += 2;
        }
        if (OFF_out) {
            if (off) outs[off++] = ';';
            memcpy(outs + off, "OFF", 3);
            off += 3;
        }
        outs[off] = '\0';
        long tf = t % 100;
        int tp = 2;
        while (tp && tf % 10 == 0) {
            tf /= 10;
            tp--;
        }
        switch (rowkind[cstate]) {
        case 0: printf("%ld,%ld%s%.*ld,%s,%s,%.15g,%s,%s\n", t, t / 100, tp ? "." : "", tp, tf, statename[cstate], x_txt, c, ins, outs); break;
        case 1: printf("%ld,%ld%s%.*ld,%s,%.15g,%.15g,%s,%s\n", t, t / 100, tp ? "." : "", tp, tf, statename[cstate], x, c, ins, outs); break;
        }
        unsigned long long mask = 0;
        while (si < stim_n && stim_ticks[si] < t) si++;
        while (si < stim_n && stim_ticks[si] == t) {
            mask |= stim_masks[si];
            si++;
        }
        ON = ((mask >> 0) & 1) || ON_out;
        ON_out = 0;
        OFF = ((mask >> 1) & 1) || OFF_out;
        OFF_out = 0;
    }
    return 0;
}
